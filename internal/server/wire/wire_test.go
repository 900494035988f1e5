package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"denova"
)

// randString draws a printable string (including empty) of bounded length.
func randString(rng *rand.Rand, max int) string {
	n := rng.Intn(max + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(' ' + rng.Intn(95))
	}
	return string(b)
}

func randRequest(rng *rand.Rand) *Request {
	ops := Ops()
	req := &Request{ID: rng.Uint64(), Op: ops[rng.Intn(len(ops))]}
	switch req.Op {
	case OpLookup, OpCreate, OpRemove, OpMkdir:
		req.Path = randString(rng, 64)
	case OpReaddir:
		req.Path = randString(rng, 64)
		req.Cookie = rng.Uint32()
	case OpRead:
		req.Handle = denova.Handle(rng.Uint64())
		req.Off = rng.Uint64() >> 16
		req.Size = uint64(rng.Intn(1 << 16))
	case OpWrite:
		req.Handle = denova.Handle(rng.Uint64())
		req.Off = rng.Uint64() >> 16
		req.Data = make([]byte, rng.Intn(1<<12))
		rng.Read(req.Data)
	case OpTruncate:
		req.Handle = denova.Handle(rng.Uint64())
		req.Size = rng.Uint64() >> 16
	case OpStat:
		req.Handle = denova.Handle(rng.Uint64())
	}
	if rng.Intn(3) == 0 {
		// The optional trace-context extension rides on any op.
		req.Trace = rng.Uint64() | 1
		req.Span = rng.Uint64()
	}
	return req
}

func randResponse(rng *rand.Rand) *Response {
	ops := Ops()
	resp := &Response{ID: rng.Uint64(), Op: ops[rng.Intn(len(ops))]}
	if rng.Intn(4) == 0 { // error response
		resp.Status = Status(1 + rng.Intn(int(numStatuses)-1))
		resp.Msg = randString(rng, 80)
		return resp
	}
	switch resp.Op {
	case OpLookup:
		resp.Handle = denova.Handle(rng.Uint64())
		resp.Info = FileInfo{
			Size: rng.Int63(), Pages: rng.Uint64() >> 8,
			Ctime: rng.Uint64() >> 8, Mtime: rng.Uint64() >> 8,
			IsDir: rng.Intn(2) == 1,
		}
	case OpCreate:
		resp.Handle = denova.Handle(rng.Uint64())
	case OpRead:
		resp.Data = make([]byte, rng.Intn(1<<12))
		rng.Read(resp.Data)
	case OpWrite:
		resp.N = rng.Uint32()
	case OpStat:
		resp.Info = FileInfo{Size: rng.Int63(), IsDir: rng.Intn(2) == 1}
	case OpReaddir:
		resp.Names = make([]string, 0, rng.Intn(8))
		for i := 0; i < cap(resp.Names); i++ {
			resp.Names = append(resp.Names, randString(rng, 32))
		}
		resp.Next = rng.Uint32()
	}
	return resp
}

// normalize makes zero-length slices comparable with DeepEqual across the
// encode/decode boundary (nil vs empty is not a wire distinction).
func (r *Request) normalize() *Request {
	if len(r.Data) == 0 {
		r.Data = nil
	}
	return r
}

func (r *Response) normalize() *Response {
	if len(r.Data) == 0 {
		r.Data = nil
	}
	if len(r.Names) == 0 {
		r.Names = nil
	}
	return r
}

// TestRequestRoundTrip: random requests of every op encode → frame-read →
// decode byte-identical.
func TestRequestRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4000; i++ {
		req := randRequest(rng)
		frame, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("encode %+v: %v", req, err)
		}
		payload, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("frame %+v: %v", req, err)
		}
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", req, err)
		}
		if !reflect.DeepEqual(got.normalize(), req.normalize()) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, req)
		}
	}
}

// TestResponseRoundTrip: same property for responses, including error
// responses of every status.
func TestResponseRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 4000; i++ {
		resp := randResponse(rng)
		frame, err := EncodeResponse(resp)
		if err != nil {
			t.Fatalf("encode %+v: %v", resp, err)
		}
		payload, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("frame %+v: %v", resp, err)
		}
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", resp, err)
		}
		if !reflect.DeepEqual(got.normalize(), resp.normalize()) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, resp)
		}
	}
}

// TestTruncatedFramesRejected: every strict prefix of a valid frame must
// fail to parse — never panic, never succeed.
func TestTruncatedFramesRejected(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200; i++ {
		req := randRequest(rng)
		frame, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := ReadFrame(bytes.NewReader(frame[:cut])); err == nil {
				// The length word may still parse; the payload must not.
				if _, derr := DecodeRequest(frame[4:cut]); derr == nil {
					t.Fatalf("truncated frame (%d/%d bytes) decoded", cut, len(frame))
				}
			}
		}
		resp := randResponse(rng)
		frame, err = EncodeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 4; cut < len(frame); cut++ {
			if _, derr := DecodeResponse(frame[4:cut]); derr == nil {
				t.Fatalf("truncated response (%d/%d bytes) decoded", cut, len(frame))
			}
		}
	}
}

// TestCorruptFramesDontPanic: random byte flips may or may not decode, but
// must never panic, and oversized length words are rejected up front.
func TestCorruptFramesDontPanic(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 2000; i++ {
		var payload []byte
		if i%2 == 0 {
			frame, err := EncodeRequest(randRequest(rng))
			if err != nil {
				t.Fatal(err)
			}
			payload = frame[4:]
		} else {
			frame, err := EncodeResponse(randResponse(rng))
			if err != nil {
				t.Fatal(err)
			}
			payload = frame[4:]
		}
		for flips := 0; flips < 3; flips++ {
			payload[rng.Intn(len(payload))] ^= byte(1 + rng.Intn(255))
		}
		// Either direction: errors are fine, panics are the bug.
		DecodeRequest(payload)
		DecodeResponse(payload)
	}

	// Hostile length word: 2 GiB frame must be rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	// Undersized length word too.
	tiny := []byte{3, 0, 0, 0, 1, 2, 3}
	if _, err := ReadFrame(bytes.NewReader(tiny)); err == nil {
		t.Fatal("undersized frame length accepted")
	}
}

// TestStatusErrorMappingBothWays pins the 1:1 sentinel↔status table in both
// directions, for every status.
func TestStatusErrorMappingBothWays(t *testing.T) {
	t.Parallel()
	table := []struct {
		status Status
		err    error
	}{
		{StatusNotFound, denova.ErrNotFound},
		{StatusExists, denova.ErrExists},
		{StatusIsDir, denova.ErrIsDir},
		{StatusNotDir, denova.ErrNotDir},
		{StatusNotEmpty, denova.ErrNotEmpty},
		{StatusNoSpace, denova.ErrNoSpace},
		{StatusInvalid, denova.ErrInvalid},
		{StatusStale, denova.ErrStaleHandle},
		{StatusRetry, denova.ErrRetry},
	}
	if want := int(numStatuses) - 2; len(table) != want { // minus OK and IO
		t.Fatalf("table covers %d statuses, want %d", len(table), want)
	}
	for _, tc := range table {
		// error → status, bare and wrapped.
		if got := StatusOf(tc.err); got != tc.status {
			t.Errorf("StatusOf(%v) = %v, want %v", tc.err, got, tc.status)
		}
		wrapped := fmt.Errorf("op context: %w", tc.err)
		if got := StatusOf(wrapped); got != tc.status {
			t.Errorf("StatusOf(wrapped %v) = %v, want %v", tc.err, got, tc.status)
		}
		// status → error: errors.Is must recover the sentinel, with and
		// without a detail message.
		if err := tc.status.Err(""); !errors.Is(err, tc.err) {
			t.Errorf("%v.Err(\"\") = %v, not Is(%v)", tc.status, err, tc.err)
		}
		if err := tc.status.Err("detail"); !errors.Is(err, tc.err) {
			t.Errorf("%v.Err(detail) = %v, not Is(%v)", tc.status, err, tc.err)
		}
	}
	// The ends of the taxonomy.
	if got := StatusOf(nil); got != StatusOK {
		t.Errorf("StatusOf(nil) = %v", got)
	}
	if err := StatusOK.Err(""); err != nil {
		t.Errorf("StatusOK.Err = %v", err)
	}
	if got := StatusOf(errors.New("mystery")); got != StatusIO {
		t.Errorf("StatusOf(unknown) = %v, want StatusIO", got)
	}
	if err := StatusIO.Err("boom"); err == nil || errors.Is(err, denova.ErrNotFound) {
		t.Errorf("StatusIO.Err = %v", err)
	}
}

// TestDecodedDataIsCapacityLimited: Data aliases the frame payload (no
// copy), so its capacity must stop at its length — an append by the owner
// reallocates instead of writing into whatever follows in the payload
// (here the trace-context extension).
func TestDecodedDataIsCapacityLimited(t *testing.T) {
	t.Parallel()
	req := &Request{ID: 7, Op: OpWrite, Handle: 1, Data: []byte("payload"), Trace: 0xABCD, Span: 0xEF}
	frame, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), frame[4:]...)
	got, err := DecodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != cap(got.Data) {
		t.Fatalf("decoded Data has len %d, cap %d: an append would write into the payload", len(got.Data), cap(got.Data))
	}
	if &got.Data[0] != &payload[8+1+8+8+4] {
		t.Error("decoded Data does not alias the payload (copied)")
	}
	_ = append(got.Data, "overrun!"...)
	if !bytes.Equal(payload, frame[4:]) {
		t.Error("append to decoded Data wrote into the rest of the payload")
	}

	rframe, err := EncodeResponse(&Response{ID: 7, Op: OpRead, Data: []byte("result")})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(rframe[4:])
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Data) != cap(resp.Data) || &resp.Data[0] != &rframe[ReadRespHeader] {
		t.Errorf("response Data: len %d cap %d, aliasing %v", len(resp.Data), cap(resp.Data), &resp.Data[0] == &rframe[ReadRespHeader])
	}
}

// TestEncodeReadResponseMatchesEncodeResponse: the in-place READ helper
// and the general encoder produce the same bytes, full and short reads.
func TestEncodeReadResponseMatchesEncodeResponse(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 500; i++ {
		asked := rng.Intn(1 << 12)
		n := asked
		if rng.Intn(3) == 0 {
			n = rng.Intn(asked + 1) // short read at EOF, down to nothing
		}
		id := rng.Uint64()
		frame := make([]byte, ReadRespHeader+asked)
		rng.Read(frame[ReadRespHeader:])
		want, err := EncodeResponse(&Response{ID: id, Op: OpRead, Data: frame[ReadRespHeader : ReadRespHeader+n]})
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeReadResponse(frame, id, n); !bytes.Equal(got, want) {
			t.Fatalf("asked %d, read %d: in-place frame differs from EncodeResponse", asked, n)
		}
	}
}

// perCall reports f's allocations and allocated bytes per call.
func perCall(f func()) (allocs float64, bytesPer uint64) {
	const runs = 200
	allocs = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestReadRoundTripAllocations pins the codec's share of a READ: one
// data-sized allocation on the server (the reply frame the file is read
// into) and one on the client (the frame ReadFrame returns, which the
// decoded Data aliases). Not parallel: AllocsPerRun forbids it.
func TestReadRoundTripAllocations(t *testing.T) {
	const size = 64 << 10
	reqFrame, err := EncodeRequest(&Request{ID: 1, Op: OpRead, Handle: 1, Size: size})
	if err != nil {
		t.Fatal(err)
	}
	var respFrame []byte
	src := bytes.NewReader(nil)
	br := bufio.NewReader(src)
	var sink int

	// Server: frame in, decode, read the file into the reply frame, patch.
	allocs, per := perCall(func() {
		src.Reset(reqFrame)
		br.Reset(src)
		payload, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		req, err := DecodeRequest(payload)
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, ReadRespHeader+req.Size)
		respFrame = EncodeReadResponse(frame, req.ID, int(req.Size))
	})
	if per < size || per >= 2*size {
		t.Errorf("server side of a READ allocates %d B for %d B of data, want one data-sized allocation", per, size)
	}
	if allocs > 4 { // length word, request payload, Request, reply frame
		t.Errorf("server side of a READ makes %v allocations, want at most 4", allocs)
	}

	// Client: reply frame in, decode; Data aliases the frame.
	allocs, per = perCall(func() {
		src.Reset(respFrame)
		br.Reset(src)
		payload, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		sink += len(resp.Data)
	})
	if per < size || per >= 2*size {
		t.Errorf("client side of a READ allocates %d B for %d B of data, want one data-sized allocation", per, size)
	}
	if allocs > 3 { // length word, reply payload, Response
		t.Errorf("client side of a READ makes %v allocations, want at most 3", allocs)
	}
	if sink == 0 {
		t.Error("no data decoded")
	}
}
