package server

import (
	"sync"

	"denova"
	"denova/internal/obs"
	"denova/internal/server/wire"
)

// Request tracing and tenant attribution for the serving layer.
//
// Each admitted request owns one server-side root span (serve.op.<name>)
// whose trace id is adopted from the request's wire trace context when the
// client sent one, or freshly generated otherwise; either way old clients
// and old servers interoperate unchanged (the wire extension is optional).
// The request's passage through the server is recorded as child spans:
//
//	serve.admission   reader goroutine: decode + admission decision
//	serve.queue_wait  handle-shard queue residence until a worker dequeues
//	                  (near zero when the reader runs the op itself)
//	serve.exec        FS execution (nova spans become grandchildren)
//	serve.reply       write-lock wait + response frame written to the socket
//
// The root span's duration is arrival-to-reply-written, judged against the
// slow-op capture threshold at reply time; per-op histograms keep their
// exec-only semantics and gain the trace id as a latency exemplar.

// wireOpSpan maps a wire op code to its serve.op.<name> span op. The two
// enums are maintained in lockstep; TestWireOpSpanNames pins the mapping.
var wireOpSpan = [wire.OpCommit + 1]obs.Op{
	wire.OpLookup:   obs.OpServeLookup,
	wire.OpCreate:   obs.OpServeCreate,
	wire.OpRead:     obs.OpServeRead,
	wire.OpWrite:    obs.OpServeWrite,
	wire.OpTruncate: obs.OpServeTruncate,
	wire.OpRemove:   obs.OpServeRemove,
	wire.OpMkdir:    obs.OpServeMkdir,
	wire.OpReaddir:  obs.OpServeReaddir,
	wire.OpStat:     obs.OpServeStat,
	wire.OpCommit:   obs.OpServeCommit,
}

// parseTenant extracts the tenant id from a path of the form
// "tenantNN/..." (or bare "tenantNN"), the layout produced by the
// multitenant workload profiles. Returns 0 (unattributed) for any other
// shape. Leading slashes are tolerated.
func parseTenant(path string) uint16 {
	for len(path) > 0 && path[0] == '/' {
		path = path[1:]
	}
	const pfx = "tenant"
	if len(path) < len(pfx)+2 || path[:len(pfx)] != pfx {
		return 0
	}
	d0, d1 := path[len(pfx)], path[len(pfx)+1]
	if d0 < '0' || d0 > '9' || d1 < '0' || d1 > '9' {
		return 0
	}
	if len(path) > len(pfx)+2 && path[len(pfx)+2] != '/' {
		return 0
	}
	return obs.TenantID(int(d0-'0')*10 + int(d1-'0'))
}

// tenantStats is the per-tenant counter triple, resolved once per tenant.
type tenantStats struct {
	ops   *obs.Counter // requests dispatched (admitted or shed)
	bytes *obs.Counter // write payload bytes received
	shed  *obs.Counter // requests shed with StatusRetry
}

// tenantCounters lazily materializes serve.<tenant>.{ops,bytes,shed}
// counters. The fast path is one sync.Map load per request.
type tenantCounters struct {
	m  sync.Map // uint16 -> *tenantStats
	mu sync.Mutex
}

func (tc *tenantCounters) get(s *Server, tenant uint16) *tenantStats {
	if v, ok := tc.m.Load(tenant); ok {
		return v.(*tenantStats)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if v, ok := tc.m.Load(tenant); ok {
		return v.(*tenantStats)
	}
	label := obs.TenantLabel(tenant)
	if tenant == 0 {
		label = "unattributed"
	}
	reg := s.fs.Registry()
	ts := &tenantStats{
		ops:   reg.Counter("serve." + label + ".ops"),
		bytes: reg.Counter("serve." + label + ".bytes"),
		shed:  reg.Counter("serve." + label + ".shed"),
	}
	tc.m.Store(tenant, ts)
	return ts
}

// tenantOf attributes a request to a tenant: path ops parse the path
// prefix; handle ops consult the handle cache populated at LOOKUP/CREATE.
func (s *Server) tenantOf(req *wire.Request) uint16 {
	switch req.Op {
	case wire.OpRead, wire.OpWrite, wire.OpTruncate, wire.OpStat:
		if v, ok := s.handleTenant.Load(req.Handle); ok {
			return v.(uint16)
		}
		return 0
	case wire.OpCommit:
		return 0
	default:
		return parseTenant(req.Path)
	}
}

// rememberTenant caches a freshly issued handle's tenant so later
// handle-addressed ops (which carry no path) stay attributed.
func (s *Server) rememberTenant(h denova.Handle, path string) {
	if t := parseTenant(path); t != 0 {
		s.handleTenant.Store(h, t)
	}
}
