package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"

	"denova/internal/workload"
)

const chunk = workload.ChunkSize

// content synthesises op payloads into a caller-owned buffer. A payload is
// a pure function of (seed, file slot, incarnation, version, chunk index),
// so it does not depend on which client replays the op or in what order,
// and nothing is allocated per op. Each 4 KB chunk is a chunk of the
// duplicate pool with probability DupRatio (Zipf-skewed when the profile
// says so), otherwise the base block stamped with its identity, which never
// repeats within a run.
type content struct {
	seed    uint64
	dupCut  uint64 // a chunk is a duplicate when its low 32 hash bits are below this
	pool    []byte // PoolSize chunks
	poolCDF []float64
	base    [chunk]byte
}

func newContent(p workload.Profile) *content {
	p = p.Normalized()
	g := &content{seed: uint64(p.Seed), dupCut: uint64(p.DupRatio * (1 << 32))}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5EED))
	g.pool = make([]byte, p.PoolSize*chunk)
	rng.Read(g.pool)
	rng.Read(g.base[:])
	if p.ZipfChunks {
		// Zipf(s=1.2, v=1) over the pool, as workload.PayloadGen draws it.
		g.poolCDF = make([]float64, p.PoolSize)
		sum := 0.0
		for k := range g.poolCDF {
			sum += math.Pow(float64(k+1), -1.2)
			g.poolCDF[k] = sum
		}
		for k := range g.poolCDF {
			g.poolCDF[k] /= sum
		}
	}
	return g
}

// splitmix64 is the finaliser of the SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// fill writes the payload of version vers of incarnation inc of slot key
// into p.
func (g *content) fill(p []byte, key int, inc, vers uint32) {
	id := g.seed ^ uint64(key)<<40 ^ uint64(inc)<<20 ^ uint64(vers)
	nPool := len(g.pool) / chunk
	for c := 0; c*chunk < len(p); c++ {
		dst := p[c*chunk : min(len(p), (c+1)*chunk)]
		h := splitmix64(splitmix64(id) + uint64(c))
		if h&0xFFFFFFFF < g.dupCut {
			u := h >> 32
			pick := int(u * uint64(nPool) >> 32)
			if g.poolCDF != nil {
				pick = min(sort.SearchFloat64s(g.poolCDF, float64(u)/(1<<32)), nPool-1)
			}
			copy(dst, g.pool[pick*chunk:])
			continue
		}
		copy(dst, g.base[:])
		if len(dst) >= 24 {
			binary.LittleEndian.PutUint64(dst, uint64(key)+1)
			binary.LittleEndian.PutUint64(dst[8:], uint64(inc)<<32|uint64(vers))
			binary.LittleEndian.PutUint64(dst[16:], uint64(c)+1)
		}
	}
}

// oracle is the expected live content of every file slot, updated in place
// as ops are acknowledged. One slab holds every slot at its size cap;
// clients own disjoint slots, so they share it without locking.
type oracle struct {
	slab    []byte
	maxSize int
	size    []int64 // -1 = the slot holds no file
	inc     []uint32
}

func newOracle(keys, maxSize int) *oracle {
	o := &oracle{slab: make([]byte, keys*maxSize), maxSize: maxSize,
		size: make([]int64, keys), inc: make([]uint32, keys)}
	for i := range o.size {
		o.size[i] = -1
	}
	return o
}

func (o *oracle) live(key int) bool { return o.size[key] >= 0 }

// data returns the slot's expected content.
func (o *oracle) data(key int) []byte {
	return o.slab[key*o.maxSize : key*o.maxSize+int(o.size[key])]
}

func (o *oracle) create(key int) {
	o.size[key] = 0
	o.inc[key]++
}

func (o *oracle) write(key int, off int64, p []byte) {
	copy(o.slab[key*o.maxSize+int(off):], p)
	if end := off + int64(len(p)); end > o.size[key] {
		o.size[key] = end
	}
}

// matches reports whether got is the slot's content at [off, off+want).
func (o *oracle) matches(key int, off, want int64, got []byte) bool {
	if int64(len(got)) != want || !o.live(key) || off+want > o.size[key] {
		return false
	}
	return bytes.Equal(got, o.data(key)[off:off+want])
}

func (o *oracle) liveCount() int {
	n := 0
	for key := range o.size {
		if o.live(key) {
			n++
		}
	}
	return n
}
