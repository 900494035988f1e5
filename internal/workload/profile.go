// Production workload profiles: where the Spec/Generator pair describes a
// static file *set* (the paper's fio-style workloads, §V-A), a Profile
// describes a live op *stream* — a deterministic, seeded trace of mixed
// create/write/append/read/stat/delete/truncate operations with zipfian
// hot-set file popularity, the shapes a production file server actually
// sees. Five built-ins cover the classic filebench-style mixes
// (fileserver, varmail, webproxy), a backup-ingest verify-as-you-go
// stream, and a multi-tenant mode running K independent namespaces
// against one device.
//
// The determinism contract: for a given Profile value, Ops() returns the
// same op stream on every call, byte for byte (EncodeOps pins this in
// tests), and NewPayloadGen derives every op payload purely from
// (Seed, Tenant, File, Vers) — so a trace replayed through the harness is
// reproducible end to end, and a content oracle can be recomputed without
// touching the file system.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// OpKind enumerates trace operations.
type OpKind uint8

const (
	OpCreate   OpKind = iota
	OpWrite           // overwrite Size bytes at offset 0
	OpAppend          // write Size bytes at the current end of file
	OpRead            // read Size bytes at Off
	OpStat            // metadata lookup (size check)
	OpDelete          // unlink
	OpTruncate        // shrink to Size bytes
	numOpKinds
)

// String returns the kind's stable lowercase name (used as the op_counts
// key and, prefixed with "op.", as the latency-histogram name).
func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpAppend:
		return "append"
	case OpRead:
		return "read"
	case OpStat:
		return "stat"
	case OpDelete:
		return "delete"
	case OpTruncate:
		return "truncate"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Op is one record of a trace.
type Op struct {
	Kind   OpKind
	Tenant int    // namespace index, [0, Profile.Tenants)
	File   int    // file slot within the tenant, [0, Profile.FilesPerTenant)
	Off    int64  // read offset / append position
	Size   int64  // payload bytes (write/append/read) or target size (truncate)
	Vers   uint32 // content version; increments per write/append to the file
}

// Mix holds the per-kind weights of a profile's op mix. Weights are
// relative; a zero weight disables the kind. Create needs no weight — it is
// emitted implicitly whenever the trace touches a file that does not exist.
type Mix struct {
	Write, Append, Read, Stat, Delete, Truncate int
}

func (m Mix) total() int {
	return m.Write + m.Append + m.Read + m.Stat + m.Delete + m.Truncate
}

// pick draws one kind proportionally to the weights.
func (m Mix) pick(rng *rand.Rand) OpKind {
	r := rng.Intn(m.total())
	for _, w := range []struct {
		k OpKind
		n int
	}{
		{OpWrite, m.Write}, {OpAppend, m.Append}, {OpRead, m.Read},
		{OpStat, m.Stat}, {OpDelete, m.Delete}, {OpTruncate, m.Truncate},
	} {
		if r < w.n {
			return w.k
		}
		r -= w.n
	}
	return OpWrite // unreachable: total() > 0 is checked by Normalized
}

// Profile describes an op-trace workload. The zero value is not useful;
// use the built-ins (Fileserver, Varmail, Webproxy, BackupIngest,
// Multitenant) or fill the fields and rely on Normalized for defaults.
type Profile struct {
	// Name labels the profile in reports and test output.
	Name string
	// Tenants is the number of independent namespaces (directories) the
	// trace spreads over. 1 = single namespace in the root.
	Tenants int
	// FilesPerTenant is the size of each tenant's file-slot universe.
	FilesPerTenant int
	// MaxFileChunks caps a file's size in 4 KB chunks; writes size
	// themselves within it and appends that would exceed it rotate the
	// file (delete + re-create).
	MaxFileChunks int
	// AppendChunks caps one append's size in chunks.
	AppendChunks int
	// NumOps is the trace length.
	NumOps int
	// Mix weights the op kinds.
	Mix Mix
	// DupRatio and PoolSize control chunk-level duplication exactly like
	// Spec: each payload chunk is drawn from a PoolSize-chunk hot pool
	// with probability DupRatio, otherwise unique.
	DupRatio float64
	PoolSize int
	// ZipfFiles skews file popularity with a Zipf(1.2) distribution so a
	// small hot set of files absorbs most operations.
	ZipfFiles bool
	// ZipfChunks skews duplicate-pool popularity the same way.
	ZipfChunks bool
	// VerifyEvery emits a read-back of the written range after every Nth
	// write/append (the backup-ingest "verify as you go" discipline;
	// 0 = never).
	VerifyEvery int
	// UnalignedOneIn makes roughly one in N overwrite payloads end on a
	// non-chunk boundary, exercising the CoW partial-page path (0 = all
	// writes chunk-aligned).
	UnalignedOneIn int
	// Seed makes the trace and all payloads deterministic.
	Seed int64
}

// Normalized returns the profile with defaults resolved and out-of-range
// fields clamped; every consumer (Trace, Ops, NewPayloadGen, the harness
// runner) normalizes first, so the same canonicalization applies
// everywhere.
func (p Profile) Normalized() Profile {
	if p.Tenants <= 0 {
		p.Tenants = 1
	}
	if p.FilesPerTenant <= 0 {
		p.FilesPerTenant = 32
	}
	if p.MaxFileChunks <= 0 {
		p.MaxFileChunks = 8
	}
	if p.AppendChunks <= 0 {
		p.AppendChunks = 1
	}
	if p.AppendChunks > p.MaxFileChunks {
		p.AppendChunks = p.MaxFileChunks
	}
	if p.NumOps < 0 {
		p.NumOps = 0
	}
	if p.Mix.total() <= 0 {
		p.Mix = Mix{Write: 20, Append: 20, Read: 40, Stat: 10, Delete: 5, Truncate: 5}
	}
	if p.PoolSize <= 0 {
		p.PoolSize = 16
	}
	if p.DupRatio < 0 {
		p.DupRatio = 0
	} else if p.DupRatio > 1 {
		p.DupRatio = 1
	}
	return p
}

// TenantDir returns the directory a tenant's files live in, or "" for the
// root namespace of a single-tenant profile.
func (p Profile) TenantDir(tenant int) string {
	if p.Tenants <= 1 {
		return ""
	}
	return fmt.Sprintf("tenant%02d", tenant)
}

// Path returns the full path of a tenant's file slot.
func (p Profile) Path(tenant, file int) string {
	name := fmt.Sprintf("pf-%06d", file)
	if dir := p.TenantDir(tenant); dir != "" {
		return dir + "/" + name
	}
	return name
}

// MaxBytes is an upper bound on the live logical volume: every slot at its
// size cap.
func (p Profile) MaxBytes() int64 {
	p = p.Normalized()
	return int64(p.Tenants) * int64(p.FilesPerTenant) * int64(p.MaxFileChunks) * ChunkSize
}

// fileState is the trace generator's model of one file slot. The runner
// replays ops for one slot strictly in trace order, so this model is
// exactly the file's future.
type fileState struct {
	exists bool
	size   int64
	vers   uint32
}

// Trace is a deterministic op-stream iterator over a profile.
type Trace struct {
	p       Profile
	rng     *rand.Rand
	fileZ   *rand.Zipf
	state   [][]fileState
	pending []Op
	emitted int
	writes  int // write+append count, for VerifyEvery cadence
}

// Trace returns a fresh iterator positioned at the start of the stream.
func (p Profile) Trace() *Trace {
	p = p.Normalized()
	t := &Trace{
		p:     p,
		rng:   rand.New(rand.NewSource(p.Seed ^ 0x7A0CE)),
		state: make([][]fileState, p.Tenants),
	}
	if p.ZipfFiles && p.FilesPerTenant > 1 {
		t.fileZ = rand.NewZipf(t.rng, 1.2, 1, uint64(p.FilesPerTenant-1))
	}
	for i := range t.state {
		t.state[i] = make([]fileState, p.FilesPerTenant)
	}
	return t
}

// Ops materializes the whole trace.
func (p Profile) Ops() []Op {
	t := p.Trace()
	ops := make([]Op, 0, p.NumOps)
	for {
		op, ok := t.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}

// Next returns the next op of the stream. Pending follow-ups (the create
// implied by touching an absent file, verify-as-you-go read-backs, rotation
// re-creates) drain before any new op is generated, so per-file op order in
// the stream is always executable: create precedes use, reads stay within
// the modelled size, truncates only shrink.
func (t *Trace) Next() (Op, bool) {
	for {
		if t.emitted >= t.p.NumOps {
			return Op{}, false
		}
		if len(t.pending) > 0 {
			op := t.pending[0]
			t.pending = t.pending[1:]
			t.emitted++
			return op, true
		}
		tn := 0
		if t.p.Tenants > 1 {
			tn = t.rng.Intn(t.p.Tenants)
		}
		var fi int
		if t.fileZ != nil {
			fi = int(t.fileZ.Uint64())
		} else {
			fi = t.rng.Intn(t.p.FilesPerTenant)
		}
		st := &t.state[tn][fi]
		kind := t.p.Mix.pick(t.rng)
		op := t.build(tn, fi, st, kind)
		t.emitted++
		return op, true
	}
}

// build turns (tenant, file, desired kind) into a valid op, adjusting the
// kind where the slot's state makes it meaningless and updating the model.
func (t *Trace) build(tn, fi int, st *fileState, kind OpKind) Op {
	// Absent file: the only valid op is create. If the caller wanted to
	// write data, queue the data op right behind it. (Recursive build calls
	// may themselves queue follow-ups — a verify read lands in pending
	// before the recursion returns — so the built op is prepended to keep
	// stream order op-then-follow-up.)
	if !st.exists {
		st.exists = true
		st.size = 0
		st.vers = 0
		if kind == OpWrite || kind == OpAppend {
			dataOp := t.build(tn, fi, st, kind)
			t.pending = append([]Op{dataOp}, t.pending...)
		}
		return Op{Kind: OpCreate, Tenant: tn, File: fi}
	}
	// Empty file: nothing to read or truncate — grow it instead.
	if st.size == 0 && (kind == OpRead || kind == OpTruncate) {
		kind = OpAppend
	}
	switch kind {
	case OpWrite:
		chunks := 1 + t.rng.Intn(t.p.MaxFileChunks)
		size := int64(chunks) * ChunkSize
		if t.p.UnalignedOneIn > 0 && t.rng.Intn(t.p.UnalignedOneIn) == 0 {
			size -= int64(t.rng.Intn(ChunkSize))
		}
		if size > st.size {
			st.size = size
		}
		st.vers++
		op := Op{Kind: OpWrite, Tenant: tn, File: fi, Off: 0, Size: size, Vers: st.vers}
		t.maybeVerify(op)
		return op
	case OpAppend:
		size := int64(1+t.rng.Intn(t.p.AppendChunks)) * ChunkSize
		if st.size+size > int64(t.p.MaxFileChunks)*ChunkSize {
			// Rotation: the stream is full — retire it and start over, the
			// long-running ingest discipline. The recursive build returns
			// the create (queuing the append behind itself); prepending it
			// yields delete → create → append in the stream.
			st.exists = false
			cr := t.build(tn, fi, st, OpAppend)
			t.pending = append([]Op{cr}, t.pending...)
			return Op{Kind: OpDelete, Tenant: tn, File: fi}
		}
		op := Op{Kind: OpAppend, Tenant: tn, File: fi, Off: st.size, Size: size, Vers: st.vers + 1}
		st.size += size
		st.vers++
		t.maybeVerify(op)
		return op
	case OpRead:
		nChunks := (st.size + ChunkSize - 1) / ChunkSize
		off := t.rng.Int63n(nChunks) * ChunkSize
		span := st.size - off
		if max := int64(t.p.MaxFileChunks) * ChunkSize / 2; span > max {
			span = ChunkSize * (1 + t.rng.Int63n(max/ChunkSize))
		}
		return Op{Kind: OpRead, Tenant: tn, File: fi, Off: off, Size: span}
	case OpStat:
		return Op{Kind: OpStat, Tenant: tn, File: fi, Size: st.size}
	case OpDelete:
		st.exists = false
		return Op{Kind: OpDelete, Tenant: tn, File: fi}
	case OpTruncate:
		size := t.rng.Int63n(st.size)
		st.size = size
		return Op{Kind: OpTruncate, Tenant: tn, File: fi, Size: size}
	}
	panic("workload: unhandled op kind " + kind.String())
}

// maybeVerify queues a read-back of the just-written range on the
// VerifyEvery cadence.
func (t *Trace) maybeVerify(w Op) {
	if t.p.VerifyEvery <= 0 {
		return
	}
	t.writes++
	if t.writes%t.p.VerifyEvery == 0 {
		t.pending = append(t.pending,
			Op{Kind: OpRead, Tenant: w.Tenant, File: w.File, Off: w.Off, Size: w.Size})
	}
}

// EncodeOps renders an op stream into a canonical byte string; the
// determinism contract ("same seed → byte-identical op stream") is asserted
// against this encoding.
func EncodeOps(ops []Op) []byte {
	buf := make([]byte, 0, len(ops)*29)
	var rec [29]byte
	for _, op := range ops {
		rec[0] = byte(op.Kind)
		binary.LittleEndian.PutUint32(rec[1:], uint32(op.Tenant))
		binary.LittleEndian.PutUint32(rec[5:], uint32(op.File))
		binary.LittleEndian.PutUint64(rec[9:], uint64(op.Off))
		binary.LittleEndian.PutUint64(rec[17:], uint64(op.Size))
		binary.LittleEndian.PutUint32(rec[25:], op.Vers)
		buf = append(buf, rec[:]...)
	}
	return buf
}

// PayloadGen derives deterministic op payloads for a profile: each chunk of
// a write/append payload is a duplicate-pool chunk with probability
// DupRatio (zipf-skewed pool pick when ZipfChunks), otherwise a chunk
// stamped unique across the whole run by (tenant, file, version, index).
// Safe for concurrent use: Data derives everything from the op.
type PayloadGen struct {
	p    Profile
	pool [][]byte
}

// NewPayloadGen builds the duplicate pool for a profile.
func (p Profile) NewPayloadGen() *PayloadGen {
	p = p.Normalized()
	g := &PayloadGen{p: p}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5EED))
	g.pool = make([][]byte, p.PoolSize)
	for i := range g.pool {
		c := make([]byte, ChunkSize)
		rng.Read(c)
		g.pool[i] = c
	}
	return g
}

// Data generates the payload of a write or append op (op.Size bytes).
func (g *PayloadGen) Data(op Op) []byte {
	data := make([]byte, op.Size)
	seed := g.p.Seed ^ int64(op.Tenant)<<48 ^ int64(op.File)<<24 ^ int64(op.Vers)
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	var zipf *rand.Zipf
	if g.p.ZipfChunks && len(g.pool) > 1 {
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(len(g.pool)-1))
	}
	for c := 0; c*ChunkSize < len(data); c++ {
		chunk := data[c*ChunkSize : min(len(data), (c+1)*ChunkSize)]
		if rng.Float64() < g.p.DupRatio {
			var pick int
			if zipf != nil {
				pick = int(zipf.Uint64())
			} else {
				pick = rng.Intn(len(g.pool))
			}
			copy(chunk, g.pool[pick])
			continue
		}
		if len(chunk) >= 16 {
			binary.LittleEndian.PutUint64(chunk, uint64(op.Tenant)<<48|uint64(op.File)<<16|uint64(op.Vers&0xFFFF))
			binary.LittleEndian.PutUint64(chunk[8:], uint64(op.Vers)<<32|uint64(c)+1)
			fillNoise(chunk[16:], uint64(seed)*0x9E3779B97F4A7C15+uint64(c))
		} else {
			fillNoise(chunk, uint64(seed)*0x9E3779B97F4A7C15+uint64(c)|1<<63)
		}
	}
	return data
}

// Built-in profiles. The numOps parameter scales trace length; everything
// else is the profile's identity and stays fixed so runs are comparable
// across commits.

// Fileserver is a filebench fileserver-style mix: balanced data ops over a
// medium file population with a zipfian hot set.
func Fileserver(numOps int) Profile {
	return Profile{
		Name: "fileserver", FilesPerTenant: 64, MaxFileChunks: 16, AppendChunks: 2,
		NumOps:   numOps,
		Mix:      Mix{Write: 18, Append: 18, Read: 34, Stat: 14, Delete: 10, Truncate: 6},
		DupRatio: 0.25, ZipfFiles: true, UnalignedOneIn: 8, Seed: 101,
	}
}

// Varmail is a varmail-style mix: many small files, append- and
// create/delete-heavy (mail delivery and expiry), uniform popularity.
func Varmail(numOps int) Profile {
	return Profile{
		Name: "varmail", FilesPerTenant: 128, MaxFileChunks: 4, AppendChunks: 1,
		NumOps:   numOps,
		Mix:      Mix{Write: 8, Append: 34, Read: 30, Stat: 8, Delete: 18, Truncate: 2},
		DupRatio: 0.4, Seed: 102,
	}
}

// Webproxy is a webproxy-style mix: read-dominant over a zipfian hot
// object set with duplicate-heavy cached content.
func Webproxy(numOps int) Profile {
	return Profile{
		Name: "webproxy", FilesPerTenant: 96, MaxFileChunks: 8, AppendChunks: 2,
		NumOps:   numOps,
		Mix:      Mix{Write: 12, Append: 4, Read: 66, Stat: 12, Delete: 4, Truncate: 2},
		DupRatio: 0.6, ZipfFiles: true, ZipfChunks: true, Seed: 103,
	}
}

// BackupIngest is a long-running ingest stream: almost pure appends into a
// few rotating stream files, every write immediately read back and
// verified (the batch-pipeline "verify as you go" discipline), with the
// duplicate-rich content a backup corpus has.
func BackupIngest(numOps int) Profile {
	return Profile{
		Name: "backup-ingest", FilesPerTenant: 8, MaxFileChunks: 64, AppendChunks: 4,
		NumOps:   numOps,
		Mix:      Mix{Write: 2, Append: 86, Read: 2, Stat: 6, Delete: 4},
		DupRatio: 0.75, VerifyEvery: 1, Seed: 104,
	}
}

// Multitenant runs a fileserver-style mix across K independent namespaces
// (one directory per tenant) hammering one device, so cross-tenant dedup,
// per-tenant isolation and refcount hygiene become testable.
func Multitenant(numOps, tenants int) Profile {
	p := Fileserver(numOps)
	p.Name = "multitenant"
	p.Tenants = tenants
	p.FilesPerTenant = 24
	p.DupRatio = 0.5 // tenants share content → cross-tenant dedup
	p.Seed = 105
	return p
}

// StandardProfiles returns the five built-in profiles at the given trace
// length (the CI/SLO suite uses one fixed length per profile; see the
// harness).
func StandardProfiles(numOps int) []Profile {
	return []Profile{
		Fileserver(numOps),
		Varmail(numOps),
		Webproxy(numOps),
		BackupIngest(numOps),
		Multitenant(numOps, 3),
	}
}
