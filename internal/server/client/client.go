// Package client is the Go client for the DENOVA serving protocol
// (internal/server/wire). One Client multiplexes any number of concurrent
// callers over a single TCP connection: each call gets a fresh request id,
// responses are matched back by id, so calls pipeline on the wire exactly
// the way the server's scheduler expects.
//
// StatusRetry sheds from the server's admission control are handled inside
// the client: the call backs off (decorrelated jitter, bounded) and
// resends, and only a persistent shed surfaces to the caller as
// denova.ErrRetry. All
// other non-OK statuses surface as the matching public denova sentinel
// (errors.Is-compatible), so code written against the local API ports to
// the network API unchanged.
package client

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"denova"
	"denova/internal/obs"
	"denova/internal/server/wire"
)

// Options tunes retry behavior; the zero value picks defaults.
type Options struct {
	// RetryBudget is how many times a call resends after a StatusRetry
	// shed before giving up with ErrRetry. Default 32.
	RetryBudget int
	// RetryBase is the first backoff. Subsequent backoffs use decorrelated
	// jitter: uniform in [RetryBase, min(3*previous, 100*RetryBase)], so a
	// burst of clients shed together does not resend in lockstep and hammer
	// admission control at the same instants. Default 200µs.
	RetryBase time.Duration
	// RetrySeed seeds the jitter RNG; 0 seeds from the clock. Fixed seeds
	// make backoff sequences reproducible in tests.
	RetrySeed int64
	// Tracer, when non-nil, opens one client.call root span per call
	// (covering every retry attempt) at the tracer's configured level. For
	// in-process loopback setups, pass the served FS's own tracer so client
	// and server spans land in one ring and one slow-op capture.
	Tracer *obs.Tracer
	// TraceContext propagates the span over the wire: each request carries
	// the call's trace and span ids in the optional trailing extension, and
	// the server's spans join the client's trace. Leave false when talking
	// to servers predating the extension — their strict decoders reject
	// frames with trailing bytes. Requires Tracer.
	TraceContext bool
}

func (o Options) withDefaults() Options {
	if o.RetryBudget <= 0 {
		o.RetryBudget = 32
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 200 * time.Microsecond
	}
	return o
}

// Client is one connection to a denova-serve endpoint. Safe for concurrent
// use; calls from many goroutines pipeline over the single connection.
type Client struct {
	conn net.Conn
	opts Options

	wmu sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	pending map[uint64]chan *wire.Response
	dead    error // set once the read loop exits; guarded by pmu

	rmu sync.Mutex // guards rng (math/rand.Rand is not goroutine-safe)
	rng *rand.Rand

	nextID atomic.Uint64
}

// Dial connects to a server.
func Dial(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		opts:    opts.withDefaults(),
		pending: make(map[uint64]chan *wire.Response),
	}
	seed := c.opts.RetrySeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c.rng = rand.New(rand.NewSource(seed))
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// readLoop dispatches response frames to their waiting callers by id. On
// any read or decode error the connection is unusable: every waiter (and
// every future call) gets the error.
func (c *Client) readLoop() {
	var fatal error
	br := bufio.NewReader(c.conn)
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			fatal = fmt.Errorf("denova client: connection lost: %w", err)
			break
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			fatal = fmt.Errorf("denova client: protocol error: %w", err)
			break
		}
		c.pmu.Lock()
		ch, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.pmu.Unlock()
		if ok {
			ch <- resp // buffered; never blocks
		}
	}
	c.conn.Close()
	c.pmu.Lock()
	c.dead = fatal
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.pmu.Unlock()
}

// roundTrip sends one request (with a fresh id) and waits for its response.
func (c *Client) roundTrip(req *wire.Request) (*wire.Response, error) {
	req.ID = c.nextID.Add(1)
	frame, err := wire.EncodeRequest(req)
	if err != nil {
		return nil, err
	}
	ch := make(chan *wire.Response, 1)
	c.pmu.Lock()
	if c.dead != nil {
		err := c.dead
		c.pmu.Unlock()
		return nil, err
	}
	c.pending[req.ID] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	err = wire.WriteFrame(c.conn, frame)
	c.wmu.Unlock()
	if err != nil {
		c.pmu.Lock()
		delete(c.pending, req.ID)
		c.pmu.Unlock()
		return nil, fmt.Errorf("denova client: send: %w", err)
	}

	resp, ok := <-ch
	if !ok {
		c.pmu.Lock()
		err := c.dead
		c.pmu.Unlock()
		return nil, err
	}
	return resp, nil
}

// nextBackoff draws the next sleep with decorrelated jitter: uniform in
// [base, min(3*prev, 100*base)]. Pure exponential doubling keeps a burst
// of simultaneously-shed clients in lockstep — every survivor of round k
// resends at the same instant in round k+1, re-creating the very overload
// that shed them. Jitter spreads each round across the window instead.
func (c *Client) nextBackoff(prev time.Duration) time.Duration {
	base := c.opts.RetryBase
	hi := 3 * prev
	if max := 100 * base; hi > max {
		hi = max
	}
	if hi <= base {
		return base
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return base + time.Duration(c.rng.Int63n(int64(hi-base)+1))
}

// call runs roundTrip with the retry loop for admission-control sheds.
// With a Tracer configured, the whole call (all retry attempts) is one
// client.call root span; with TraceContext, the request carries the span's
// ids so the server's spans join the same trace.
func (c *Client) call(req *wire.Request) (*wire.Response, error) {
	tr := c.opts.Tracer
	sc := tr.StartRoot(0)
	var start time.Time
	if sc.Valid() {
		start = time.Now()
		if c.opts.TraceContext {
			req.Trace, req.Span = sc.Trace, sc.Span
		}
		defer func() {
			d := time.Since(start)
			// parent 0: a root span, judged against the slow-op threshold
			// by EmitSpan itself. The server judges its own root too; the
			// capture keeps whichever verdict is slower.
			tr.EmitSpan(obs.OpClientCall, sc, 0, uint64(req.Handle), uint64(req.Op), start, d)
		}()
	}
	backoff := c.opts.RetryBase
	for attempt := 0; ; attempt++ {
		resp, err := c.roundTrip(req)
		if err != nil {
			return nil, err
		}
		if resp.Status == wire.StatusRetry && attempt < c.opts.RetryBudget {
			time.Sleep(backoff)
			backoff = c.nextBackoff(backoff)
			continue
		}
		if resp.Status != wire.StatusOK {
			return nil, resp.Status.Err(resp.Msg)
		}
		return resp, nil
	}
}

// Lookup resolves a path to its stable handle and metadata.
func (c *Client) Lookup(path string) (denova.Handle, wire.FileInfo, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpLookup, Path: path})
	if err != nil {
		return 0, wire.FileInfo{}, err
	}
	return resp.Handle, resp.Info, nil
}

// Create makes a new empty file and returns its handle.
func (c *Client) Create(path string) (denova.Handle, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpCreate, Path: path})
	if err != nil {
		return 0, err
	}
	return resp.Handle, nil
}

// Read returns up to n bytes at off (short only at end of file).
func (c *Client) Read(h denova.Handle, off uint64, n uint32) ([]byte, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpRead, Handle: h, Off: off, Size: uint64(n)})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// Write stores data at off and returns the bytes accepted.
func (c *Client) Write(h denova.Handle, off uint64, data []byte) (int, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpWrite, Handle: h, Off: off, Data: data})
	if err != nil {
		return 0, err
	}
	return int(resp.N), nil
}

// Truncate sets the file's size.
func (c *Client) Truncate(h denova.Handle, size uint64) error {
	_, err := c.call(&wire.Request{Op: wire.OpTruncate, Handle: h, Size: size})
	return err
}

// Remove unlinks a file.
func (c *Client) Remove(path string) error {
	_, err := c.call(&wire.Request{Op: wire.OpRemove, Path: path})
	return err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	_, err := c.call(&wire.Request{Op: wire.OpMkdir, Path: path})
	return err
}

// Readdir lists a directory ("" for the root), following READDIR cookies
// until the listing is complete, so directories of any size come back
// whole regardless of the server's page size or the frame budget.
func (c *Client) Readdir(path string) ([]string, error) {
	var names []string
	cookie := uint32(0)
	for {
		resp, err := c.call(&wire.Request{Op: wire.OpReaddir, Path: path, Cookie: cookie})
		if err != nil {
			return nil, err
		}
		names = append(names, resp.Names...)
		if resp.Next == 0 {
			return names, nil
		}
		if resp.Next <= cookie {
			return nil, fmt.Errorf("denova client: readdir cookie stuck at %d", resp.Next)
		}
		cookie = resp.Next
	}
}

// Stat returns a handle's current metadata.
func (c *Client) Stat(h denova.Handle) (wire.FileInfo, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpStat, Handle: h})
	if err != nil {
		return wire.FileInfo{}, err
	}
	return resp.Info, nil
}

// Commit blocks until the server's dedup pipeline is fully drained.
func (c *Client) Commit() error {
	_, err := c.call(&wire.Request{Op: wire.OpCommit})
	return err
}
