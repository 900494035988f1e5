package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"denova/internal/workload"
)

// spec is one benchmark workload: a trace, the way it is driven, and the
// sizes of its fixed-count phases. Everything here is a literal on purpose:
// a later change to a built-in profile or a default must not move the
// benchmark's inputs (the pinned digest turns such a drift into an error).
type spec struct {
	name    string
	profile workload.Profile
	dedup   bool // ModeImmediate (true) or ModeNone
	staging int  // Staging.MaxPages; 0 = CoW slow path
	devSize int64
	wire    bool // loopback TCP through server + client; else in-process
	clients int  // replay goroutines = connections
	// commitEvery issues a COMMIT after every N ops of one connection in
	// the measured phase (varmail's fsync discipline); 0 = never.
	commitEvery int
	warmOps     int // fixed-count warm-up, all clients together
	// tracedOpsPerSec sizes the serialised traced pass: it replays
	// seconds*tracedOpsPerSec ops, a quarter of what the measured phase
	// completes on the reference box, so its counts depend on -seconds and
	// -seed only.
	tracedOpsPerSec int
	// digest pins SHA-256(workload.EncodeOps(first digestOps ops)) at
	// -seed 1.
	digest string
}

// traceLen is the trace length handed to workload.Profile: the measured
// phase is bounded by time, so the trace only has to be longer than any run.
const traceLen = 1 << 40

const digestOps = 100_000

// tracedSyncEvery is the COMMIT/Sync cadence of the traced pass for workloads
// without one of their own.
const tracedSyncEvery = 256

var fileserverProfile = workload.Profile{
	Name: "fileserver", Tenants: 1, FilesPerTenant: 1024, MaxFileChunks: 16, AppendChunks: 2,
	Mix:      workload.Mix{Write: 18, Append: 18, Read: 34, Stat: 14, Delete: 10, Truncate: 6},
	DupRatio: 0.25, PoolSize: 16, ZipfFiles: true, UnalignedOneIn: 8, Seed: 101,
}

var specs = []spec{
	{
		name: "fileserver", profile: fileserverProfile, dedup: true,
		devSize: 512 << 20, clients: 1, warmOps: 60_000, tracedOpsPerSec: 7500,
		digest: "00297e22e9af24f45cc022acb4bbce72d20d8bf74a71966d74b1c16535a582d0",
	},
	{
		name: "fileserver-nodedup", profile: fileserverProfile, dedup: false,
		devSize: 512 << 20, clients: 1, warmOps: 100_000, tracedOpsPerSec: 15000,
		digest: "00297e22e9af24f45cc022acb4bbce72d20d8bf74a71966d74b1c16535a582d0",
	},
	{
		name: "ingest-staged",
		profile: workload.Profile{
			Name: "backup-ingest", Tenants: 1, FilesPerTenant: 32, MaxFileChunks: 256, AppendChunks: 8,
			Mix:      workload.Mix{Write: 2, Append: 86, Read: 2, Stat: 6, Delete: 4},
			DupRatio: 0.75, PoolSize: 2048, ZipfChunks: true, VerifyEvery: 1, Seed: 104,
		},
		dedup: true, staging: 8,
		devSize: 512 << 20, clients: 1, warmOps: 30_000, tracedOpsPerSec: 3750,
		digest: "9a29454c56c0fa2953372568e6b042274397c38b37257f7887c81efd5b840723",
	},
	{
		name: "webproxy-wire",
		profile: workload.Profile{
			Name: "webproxy", Tenants: 1, FilesPerTenant: 96, MaxFileChunks: 8, AppendChunks: 2,
			Mix:      workload.Mix{Write: 12, Append: 4, Read: 66, Stat: 12, Delete: 4, Truncate: 2},
			DupRatio: 0.6, PoolSize: 16, ZipfFiles: true, ZipfChunks: true, Seed: 103,
		},
		dedup: true, wire: true,
		devSize: 256 << 20, clients: 2, warmOps: 40_000, tracedOpsPerSec: 6250,
		digest: "593d87c85aa5b0618d207f1f2604bc63fcec95b6644c59b53dbc0ea74d65e548",
	},
	{
		name: "varmail-wire",
		profile: workload.Profile{
			Name: "varmail", Tenants: 1, FilesPerTenant: 2048, MaxFileChunks: 4, AppendChunks: 1,
			Mix:      workload.Mix{Write: 8, Append: 34, Read: 30, Stat: 8, Delete: 18, Truncate: 2},
			DupRatio: 0.4, PoolSize: 16, Seed: 102,
		},
		dedup: true, wire: true, commitEvery: 64,
		devSize: 256 << 20, clients: 2, warmOps: 40_000, tracedOpsPerSec: 6250,
		digest: "df55dadf5c2813b1497a4246bb7fe49af1af51b24fed8a6d4165536cb5293c28",
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seeded returns the workload's profile for one run: seed = profile seed +
// -seed, trace effectively endless.
func (s *spec) seeded(seed int64) workload.Profile {
	p := s.profile
	p.Seed += seed
	p.NumOps = traceLen
	return p
}

// keys is the number of file slots; one slot is one oracle entry and one
// open handle.
func (s *spec) keys() int { return s.profile.Tenants * s.profile.FilesPerTenant }

// maxFileBytes is the size cap of one file slot.
func (s *spec) maxFileBytes() int { return s.profile.MaxFileChunks * workload.ChunkSize }

// traceDigest hashes the canonical encoding of the first n ops of a trace,
// streaming so that the trace is never materialised.
func traceDigest(p workload.Profile, n int) string {
	p.NumOps = n
	tr := p.Trace()
	h := sha256.New()
	batch := make([]workload.Op, 0, 1024)
	for {
		batch = batch[:0]
		for len(batch) < cap(batch) {
			op, ok := tr.Next()
			if !ok {
				break
			}
			batch = append(batch, op)
		}
		if len(batch) == 0 {
			return hex.EncodeToString(h.Sum(nil))
		}
		h.Write(workload.EncodeOps(batch))
	}
}

// checkDigest is the "workload drifted" gate: at seed 1 the trace must be
// the one the committed baselines were measured on. Other seeds have no pin
// and report that they were not checked.
func (s *spec) checkDigest(seed int64) (checked bool, err error) {
	if seed != 1 {
		return false, nil
	}
	if got := traceDigest(s.seeded(seed), digestOps); got != s.digest {
		return true, fmt.Errorf("workload drifted: %s trace digest is %s, pinned %s", s.name, got, s.digest)
	}
	return true, nil
}
