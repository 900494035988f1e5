// Package wire is the DENOVA serving protocol: a compact length-prefixed
// binary codec for an NFS-like stateless op set. One frame carries one
// request or one response:
//
//	u32  payload length (little endian; excludes the length word itself)
//	u64  request id (chosen by the client; echoed by the server)
//	u8   op code
//	u8   status (responses only; requests omit the byte)
//	...  op-specific body
//
// Strings are u16 length + bytes, data buffers u32 length + bytes. Frames
// larger than MaxFrame are rejected before any allocation, so a corrupt or
// hostile length word cannot balloon memory. Decoding never panics:
// truncated or malformed frames return an error.
//
// READDIR is paginated with an opaque cookie so a directory of any size
// lists without ever building an oversized frame: the request carries the
// cookie of the previous page (0 for the first call), the response carries
// a sorted slice of names plus the cookie of the next page (0 when the
// listing is complete). Cookies index into the server's sorted snapshot of
// the directory; entries created or removed between pages may be missed or
// duplicated, exactly like NFS READDIR.
//
// Handles are denova.Handle values — stable 64-bit inode identities issued
// by LOOKUP/CREATE — so every data op is stateless on the server: no
// per-connection open-file table exists, reconnecting clients keep their
// handles, and any server worker can execute any request.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"denova"
)

// Op enumerates the protocol's operation codes.
type Op uint8

const (
	OpInvalid  Op = iota
	OpLookup      // path -> handle + info
	OpCreate      // path -> handle
	OpRead        // handle, off, len -> data (short at EOF)
	OpWrite       // handle, off, data -> n
	OpTruncate    // handle, size
	OpRemove      // path
	OpMkdir       // path
	OpReaddir     // path, cookie -> one page of names + next cookie
	OpStat        // handle -> info
	OpCommit      // drain the dedup pipeline to a quiesced state
	numOps
)

// String returns the op's stable lowercase name (also the serve.op.<name>
// histogram suffix).
func (o Op) String() string {
	switch o {
	case OpLookup:
		return "lookup"
	case OpCreate:
		return "create"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTruncate:
		return "truncate"
	case OpRemove:
		return "remove"
	case OpMkdir:
		return "mkdir"
	case OpReaddir:
		return "readdir"
	case OpStat:
		return "stat"
	case OpCommit:
		return "commit"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Ops lists every valid op code (for table tests and metric registration).
func Ops() []Op {
	out := make([]Op, 0, numOps-1)
	for o := OpLookup; o < numOps; o++ {
		out = append(out, o)
	}
	return out
}

// Status enumerates response status codes, mapping 1:1 onto the public
// denova error taxonomy.
type Status uint8

const (
	StatusOK Status = iota
	StatusNotFound
	StatusExists
	StatusIsDir
	StatusNotDir
	StatusNotEmpty
	StatusNoSpace
	StatusInvalid
	StatusStale
	StatusRetry // shed by admission control: back off and resend
	StatusIO    // catch-all for internal errors
	numStatuses
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusExists:
		return "exists"
	case StatusIsDir:
		return "is-dir"
	case StatusNotDir:
		return "not-dir"
	case StatusNotEmpty:
		return "not-empty"
	case StatusNoSpace:
		return "no-space"
	case StatusInvalid:
		return "invalid"
	case StatusStale:
		return "stale-handle"
	case StatusRetry:
		return "retry"
	case StatusIO:
		return "io"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// statusErrs is the 1:1 sentinel table; StatusOf and Err are both derived
// from it so the two directions cannot drift apart.
var statusErrs = [numStatuses]error{
	StatusNotFound: denova.ErrNotFound,
	StatusExists:   denova.ErrExists,
	StatusIsDir:    denova.ErrIsDir,
	StatusNotDir:   denova.ErrNotDir,
	StatusNotEmpty: denova.ErrNotEmpty,
	StatusNoSpace:  denova.ErrNoSpace,
	StatusInvalid:  denova.ErrInvalid,
	StatusStale:    denova.ErrStaleHandle,
	StatusRetry:    denova.ErrRetry,
}

// StatusOf maps an error to its wire status. Unrecognized errors become
// StatusIO; nil is StatusOK.
func StatusOf(err error) Status {
	if err == nil {
		return StatusOK
	}
	for st, sentinel := range statusErrs {
		if sentinel != nil && errors.Is(err, sentinel) {
			return Status(st)
		}
	}
	return StatusIO
}

// Err maps a status back to the public sentinel, wrapped with the server's
// detail message. StatusOK yields nil; StatusIO yields a plain error
// carrying the message.
func (s Status) Err(msg string) error {
	if s == StatusOK {
		return nil
	}
	if int(s) < len(statusErrs) && statusErrs[s] != nil {
		// A detail message that is just the sentinel's own text adds
		// nothing ("nova: is a directory: nova: is a directory").
		if msg == "" || msg == statusErrs[s].Error() {
			return statusErrs[s]
		}
		return fmt.Errorf("%s: %w", msg, statusErrs[s])
	}
	if msg == "" {
		msg = "internal server error"
	}
	return fmt.Errorf("denova server: %s", msg)
}

// Request is the decoded form of one request frame. One struct covers all
// ops; only the fields the op defines are encoded (see bodies below).
type Request struct {
	ID     uint64
	Op     Op
	Path   string        // lookup, create, remove, mkdir, readdir
	Handle denova.Handle // read, write, truncate, stat
	Off    uint64        // read, write
	Size   uint64        // read (length), truncate (target size)
	Data   []byte        // write payload
	Cookie uint32        // readdir: resume cursor (0 = first page)

	// Trace/Span carry the optional trace-context extension: the client's
	// trace id and calling span id, encoded as a magic-prefixed suffix
	// after the op body (see traceExt*). Zero Trace means "no context" and
	// encodes nothing, so frames to old servers are byte-identical.
	Trace uint64
	Span  uint64
}

// FileInfo is the wire form of file metadata.
type FileInfo struct {
	Size  int64
	Pages uint64
	Ctime uint64
	Mtime uint64
	IsDir bool
}

// Response is the decoded form of one response frame.
type Response struct {
	ID     uint64
	Op     Op
	Status Status
	Msg    string        // error detail (non-OK only)
	Handle denova.Handle // lookup, create
	Info   FileInfo      // lookup, stat
	N      uint32        // write: bytes accepted
	Data   []byte        // read result
	Names  []string      // readdir result (one page)
	Next   uint32        // readdir: cookie of the next page (0 = done)
}

// MaxFrame is the largest payload a peer will accept. It bounds one WRITE
// to a little under 8 MiB of data, far beyond any sane op, while keeping a
// corrupt length word from allocating gigabytes.
const MaxFrame = 8 << 20

const (
	maxString = 1 << 14 // paths and error messages
	maxNames  = 1 << 16 // readdir entries per response
)

// Trace-context extension: an optional 20-byte suffix after a request's op
// body — u32 magic, u64 trace id, u64 span id. Backward compatibility is
// structural, not negotiated:
//
//   - old client → new server: the suffix is absent, remain() is 0 at the
//     extension check, the request decodes exactly as before;
//   - new client → old server: old decoders reject trailing bytes, so a
//     client only sends the suffix when configured for a server that
//     understands it (client.Options.TraceContext);
//   - the magic word keeps a corrupt or truncated frame that happens to
//     leave 20 bytes from being misread as a context: without it the bytes
//     fall through to done() and fail as trailing garbage, as before.
const (
	traceExtMagic = 0x43545845 // "EXTC", little-endian
	traceExtSize  = 4 + 8 + 8
)

// appendString encodes a u16-prefixed string.
func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > maxString {
		return nil, fmt.Errorf("wire: string of %d bytes exceeds %d", len(s), maxString)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// reader is a bounds-checked cursor over one frame payload.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remain() int { return len(r.b) - r.off }

func (r *reader) u8() (uint8, error) {
	if r.remain() < 1 {
		return 0, io.ErrUnexpectedEOF
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.remain() < 2 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remain() < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.remain() < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if r.remain() < int(n) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(r.remain()) {
		return nil, io.ErrUnexpectedEOF
	}
	// Alias, not copy; the capacity limit keeps an append to the result
	// from writing into the rest of the payload.
	end := r.off + int(n)
	b := r.b[r.off:end:end]
	r.off = end
	return b, nil
}

// done verifies the whole payload was consumed; trailing garbage means a
// mis-framed or corrupt record.
func (r *reader) done() error {
	if r.remain() != 0 {
		return fmt.Errorf("wire: %d trailing bytes in frame", r.remain())
	}
	return nil
}

// EncodeRequest renders a request into one frame.
func EncodeRequest(req *Request) ([]byte, error) {
	if req.Op <= OpInvalid || req.Op >= numOps {
		return nil, fmt.Errorf("wire: invalid op %d", req.Op)
	}
	b := make([]byte, 4, 64+len(req.Data)) // length patched last
	b = binary.LittleEndian.AppendUint64(b, req.ID)
	b = append(b, byte(req.Op))
	var err error
	switch req.Op {
	case OpLookup, OpCreate, OpRemove, OpMkdir:
		b, err = appendString(b, req.Path)
		if err != nil {
			return nil, err
		}
	case OpReaddir:
		b, err = appendString(b, req.Path)
		if err != nil {
			return nil, err
		}
		b = binary.LittleEndian.AppendUint32(b, req.Cookie)
	case OpRead:
		b = binary.LittleEndian.AppendUint64(b, uint64(req.Handle))
		b = binary.LittleEndian.AppendUint64(b, req.Off)
		b = binary.LittleEndian.AppendUint32(b, uint32(req.Size))
	case OpWrite:
		if len(req.Data) > MaxFrame-64 {
			return nil, fmt.Errorf("wire: write payload of %d bytes exceeds frame budget", len(req.Data))
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(req.Handle))
		b = binary.LittleEndian.AppendUint64(b, req.Off)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(req.Data)))
		b = append(b, req.Data...)
	case OpTruncate:
		b = binary.LittleEndian.AppendUint64(b, uint64(req.Handle))
		b = binary.LittleEndian.AppendUint64(b, req.Size)
	case OpStat:
		b = binary.LittleEndian.AppendUint64(b, uint64(req.Handle))
	case OpCommit:
		// no body
	}
	if req.Trace != 0 {
		b = binary.LittleEndian.AppendUint32(b, traceExtMagic)
		b = binary.LittleEndian.AppendUint64(b, req.Trace)
		b = binary.LittleEndian.AppendUint64(b, req.Span)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b, nil
}

// DecodeRequest parses one request payload (the frame minus its length
// word). The request owns payload from here on: Data aliases it rather than
// copying, so the caller must hand in a buffer nothing else will reuse (as
// ReadFrame returns) and must not write to it afterwards.
func DecodeRequest(payload []byte) (*Request, error) {
	r := &reader{b: payload}
	id, err := r.u64()
	if err != nil {
		return nil, err
	}
	opByte, err := r.u8()
	if err != nil {
		return nil, err
	}
	op := Op(opByte)
	if op <= OpInvalid || op >= numOps {
		return nil, fmt.Errorf("wire: invalid op %d", op)
	}
	req := &Request{ID: id, Op: op}
	switch op {
	case OpLookup, OpCreate, OpRemove, OpMkdir:
		if req.Path, err = r.str(); err != nil {
			return nil, err
		}
	case OpReaddir:
		if req.Path, err = r.str(); err != nil {
			return nil, err
		}
		if req.Cookie, err = r.u32(); err != nil {
			return nil, err
		}
	case OpRead:
		var h, off uint64
		var n uint32
		if h, err = r.u64(); err == nil {
			if off, err = r.u64(); err == nil {
				n, err = r.u32()
			}
		}
		if err != nil {
			return nil, err
		}
		req.Handle, req.Off, req.Size = denova.Handle(h), off, uint64(n)
	case OpWrite:
		var h, off uint64
		if h, err = r.u64(); err == nil {
			if off, err = r.u64(); err == nil {
				req.Data, err = r.bytes()
			}
		}
		if err != nil {
			return nil, err
		}
		req.Handle, req.Off = denova.Handle(h), off
	case OpTruncate:
		var h, size uint64
		if h, err = r.u64(); err == nil {
			size, err = r.u64()
		}
		if err != nil {
			return nil, err
		}
		req.Handle, req.Size = denova.Handle(h), size
	case OpStat:
		var h uint64
		if h, err = r.u64(); err != nil {
			return nil, err
		}
		req.Handle = denova.Handle(h)
	case OpCommit:
	}
	if r.remain() == traceExtSize &&
		binary.LittleEndian.Uint32(r.b[r.off:]) == traceExtMagic {
		r.off += 4
		if req.Trace, err = r.u64(); err != nil {
			return nil, err
		}
		if req.Span, err = r.u64(); err != nil {
			return nil, err
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return req, nil
}

func appendInfo(b []byte, fi FileInfo) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(fi.Size))
	b = binary.LittleEndian.AppendUint64(b, fi.Pages)
	b = binary.LittleEndian.AppendUint64(b, fi.Ctime)
	b = binary.LittleEndian.AppendUint64(b, fi.Mtime)
	if fi.IsDir {
		return append(b, 1)
	}
	return append(b, 0)
}

func (r *reader) info() (FileInfo, error) {
	var fi FileInfo
	size, err := r.u64()
	if err != nil {
		return fi, err
	}
	if fi.Pages, err = r.u64(); err != nil {
		return fi, err
	}
	if fi.Ctime, err = r.u64(); err != nil {
		return fi, err
	}
	if fi.Mtime, err = r.u64(); err != nil {
		return fi, err
	}
	dir, err := r.u8()
	if err != nil {
		return fi, err
	}
	if dir > 1 {
		return fi, fmt.Errorf("wire: invalid is-dir byte %d", dir)
	}
	fi.Size = int64(size)
	fi.IsDir = dir == 1
	return fi, nil
}

// EncodeResponse renders a response into one frame.
func EncodeResponse(resp *Response) ([]byte, error) {
	if resp.Op <= OpInvalid || resp.Op >= numOps {
		return nil, fmt.Errorf("wire: invalid op %d", resp.Op)
	}
	if resp.Status >= numStatuses {
		return nil, fmt.Errorf("wire: invalid status %d", resp.Status)
	}
	b := make([]byte, 4, 64+len(resp.Data))
	b = binary.LittleEndian.AppendUint64(b, resp.ID)
	b = append(b, byte(resp.Op), byte(resp.Status))
	var err error
	if resp.Status != StatusOK {
		if b, err = appendString(b, resp.Msg); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
		return b, nil
	}
	switch resp.Op {
	case OpLookup:
		b = binary.LittleEndian.AppendUint64(b, uint64(resp.Handle))
		b = appendInfo(b, resp.Info)
	case OpCreate:
		b = binary.LittleEndian.AppendUint64(b, uint64(resp.Handle))
	case OpRead:
		if len(resp.Data) > MaxFrame-64 {
			return nil, fmt.Errorf("wire: read result of %d bytes exceeds frame budget", len(resp.Data))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Data)))
		b = append(b, resp.Data...)
	case OpWrite:
		b = binary.LittleEndian.AppendUint32(b, resp.N)
	case OpStat:
		b = appendInfo(b, resp.Info)
	case OpReaddir:
		if len(resp.Names) > maxNames {
			return nil, fmt.Errorf("wire: %d readdir entries exceed %d", len(resp.Names), maxNames)
		}
		b = binary.LittleEndian.AppendUint32(b, resp.Next)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Names)))
		for _, n := range resp.Names {
			if b, err = appendString(b, n); err != nil {
				return nil, err
			}
		}
	case OpTruncate, OpRemove, OpMkdir, OpCommit:
		// no body
	}
	if len(b)-4 > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", len(b)-4)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b, nil
}

// DecodeResponse parses one response payload. As with DecodeRequest, the
// response owns payload: Data aliases it.
func DecodeResponse(payload []byte) (*Response, error) {
	r := &reader{b: payload}
	id, err := r.u64()
	if err != nil {
		return nil, err
	}
	opByte, err := r.u8()
	if err != nil {
		return nil, err
	}
	op := Op(opByte)
	if op <= OpInvalid || op >= numOps {
		return nil, fmt.Errorf("wire: invalid op %d", op)
	}
	stByte, err := r.u8()
	if err != nil {
		return nil, err
	}
	st := Status(stByte)
	if st >= numStatuses {
		return nil, fmt.Errorf("wire: invalid status %d", st)
	}
	resp := &Response{ID: id, Op: op, Status: st}
	if st != StatusOK {
		if resp.Msg, err = r.str(); err != nil {
			return nil, err
		}
		return resp, r.done()
	}
	switch op {
	case OpLookup:
		var h uint64
		if h, err = r.u64(); err != nil {
			return nil, err
		}
		resp.Handle = denova.Handle(h)
		if resp.Info, err = r.info(); err != nil {
			return nil, err
		}
	case OpCreate:
		var h uint64
		if h, err = r.u64(); err != nil {
			return nil, err
		}
		resp.Handle = denova.Handle(h)
	case OpRead:
		if resp.Data, err = r.bytes(); err != nil {
			return nil, err
		}
	case OpWrite:
		if resp.N, err = r.u32(); err != nil {
			return nil, err
		}
	case OpStat:
		if resp.Info, err = r.info(); err != nil {
			return nil, err
		}
	case OpReaddir:
		if resp.Next, err = r.u32(); err != nil {
			return nil, err
		}
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if n > maxNames {
			return nil, fmt.Errorf("wire: %d readdir entries exceed %d", n, maxNames)
		}
		// Each name costs >= 2 bytes on the wire; reject counts the
		// remaining payload cannot possibly hold before allocating.
		if int64(n)*2 > int64(r.remain()) {
			return nil, io.ErrUnexpectedEOF
		}
		resp.Names = make([]string, 0, n)
		for i := uint32(0); i < n; i++ {
			s, err := r.str()
			if err != nil {
				return nil, err
			}
			resp.Names = append(resp.Names, s)
		}
	case OpTruncate, OpRemove, OpMkdir, OpCommit:
	}
	return resp, r.done()
}

// ReadRespHeader is the fixed prefix of an OK READ response frame: length
// word, id, op, status, data length.
const ReadRespHeader = 4 + 8 + 1 + 1 + 4

// EncodeReadResponse finishes an OK READ response in place, sparing the
// data-sized copy EncodeResponse would make: the caller allocated frame
// with ReadRespHeader bytes of headroom and read n bytes of file data into
// frame[ReadRespHeader:]. The result is byte-identical to EncodeResponse of
// the same response.
func EncodeReadResponse(frame []byte, id uint64, n int) []byte {
	frame = frame[:ReadRespHeader+n]
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	binary.LittleEndian.PutUint64(frame[4:], id)
	frame[12], frame[13] = byte(OpRead), byte(StatusOK)
	binary.LittleEndian.PutUint32(frame[14:], uint32(n))
	return frame
}

// WriteFrame writes one encoded frame (as returned by EncodeRequest or
// EncodeResponse) to w.
func WriteFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame payload from r: the u32 length word, bounds
// check, then exactly that many bytes. Every call returns a fresh buffer,
// which the Decode function it is handed to then owns. Callers pass a
// per-connection bufio.Reader so a small frame costs one read(2), not two.
func ReadFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	if n < 9 { // id + op is the minimum for either direction
		return nil, fmt.Errorf("wire: frame length %d below minimum", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
