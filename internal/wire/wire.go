// Package wire is the data plane's binary protocol: the framing and message
// set spoken between the dispatcher (cmd/edgeserved -listen) and its peers —
// edgeagent processes serving one edge server each, and clients submitting
// inference requests. The encoding is deliberately simple and fully
// self-describing:
//
//   - every connection direction starts with a 4-byte magic ("ESWP") plus a
//     uvarint protocol version, so a foreign or stale peer is rejected on
//     the first read;
//   - every message is one length-prefixed frame: a uvarint payload length
//     (bounded by MaxFrame) followed by the payload — a uvarint message
//     type and the message fields;
//   - floats travel as the 8 little-endian bytes of math.Float64bits, so
//     NaN payloads, ±Inf and -0 round-trip bit for bit (the serve quarantine
//     strikes on NaN samples, so the wire must deliver them intact);
//   - integers are uvarint/zigzag-varint, strings and byte blobs are
//     length-prefixed.
//
// Decoding never panics on arbitrary bytes (FuzzWireDecode pins this):
// every length read is validated against the remaining frame, oversize
// frames are refused before allocation, and a short frame surfaces as a
// typed *DecodeError naming the offending field.
//
// Conn is the shared endpoint. Its write side combines, by one rule: queue,
// yield once, write only if your frame is still unwritten. A sender appends
// its frame to the connection's pending buffer, yields the processor, and
// then writes everything pending in one Write — unless a sender that took the
// socket before it already carried its frame, in which case it returns
// without a syscall. Every sender runnable at that moment (the calls one
// batched read just woke) queues during the yield and rides the first
// sender's Write; a lone sender's yield finds nothing to run and it writes at
// once. There is no timer and no writer goroutine. The byte stream is the
// concatenation of WriteFrame(Encode(m)) whatever the batching. The first
// write error is sticky.
//
// The boundary activation is the one large thing the plane moves, and of the
// four places one crossing of a 64 KiB Infer could be copied, each end pays
// only the kernel's:
//
//	encode into pending   none — a blob of refMin bytes or more is queued
//	                      by reference and gathered into the batch's write
//	                      (net.Buffers: one writev on a socket)
//	kernel send           one
//	kernel receive        one (read into a pooled frame)
//	decode copy           none — a blob of loanMin bytes or more aliases
//	                      the frame it arrived in
//
// So the write side borrows: a blob queued by reference must not change until
// the Send, or the Flush, that carries it has returned. After the write the
// Conn keeps no reference to it.
//
// And the read side lends. A message returned by Recv owns all of its
// memory. For an Infer with a large Payload that includes the frame, which
// the next Recv therefore does not reuse: it reads into another from a
// package-level pool. (*Infer).Release hands the frame back once the receiver
// is done with the payload; a receiver that never calls it pays one frame of
// garbage per message and nothing worse. Decode, whose input is the caller's
// buffer and not ours to lend, always copies.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
)

// Magic heads every connection direction; a peer that opens with anything
// else is not speaking this protocol.
const Magic = "ESWP"

// Version is the protocol version carried after the magic. Peers with a
// different version are rejected at handshake.
const Version = 2

// MaxFrame bounds one message frame's payload. A length prefix above this
// is refused before any allocation — a torn stream or a hostile peer must
// not be able to make the reader allocate gigabytes.
const MaxFrame = 1 << 20

// DecodeError reports a malformed frame or message, naming the field that
// failed so a protocol bug is diagnosable from the error alone.
type DecodeError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: decoding %s: %s", e.Field, e.Reason)
}

func decodeErr(field, format string, args ...any) error {
	return &DecodeError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// WriteHeader writes the magic + version preamble for one direction.
func WriteHeader(w io.Writer) error {
	buf := append([]byte(Magic), 0, 0)
	n := binary.PutUvarint(buf[len(Magic):], Version)
	if _, err := w.Write(buf[:len(Magic)+n]); err != nil {
		return fmt.Errorf("wire: writing header: %w", err)
	}
	return nil
}

// ReadHeader consumes and validates the peer's preamble.
func ReadHeader(r io.ByteReader) error {
	for i := 0; i < len(Magic); i++ {
		b, err := r.ReadByte()
		if err != nil {
			return fmt.Errorf("wire: reading magic: %w", err)
		}
		if b != Magic[i] {
			return decodeErr("magic", "byte %d is 0x%02x, want %q", i, b, Magic[i])
		}
	}
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("wire: reading version: %w", err)
	}
	if v != Version {
		return decodeErr("version", "peer speaks version %d, want %d", v, Version)
	}
	return nil
}

// WriteFrame writes one length-prefixed frame, prefix and payload in a single
// Write.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame %d", len(payload), MaxFrame)
	}
	frame := make([]byte, 0, binary.MaxVarintLen32+len(payload))
	frame = append(binary.AppendUvarint(frame, uint64(len(payload))), payload...)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// frameReader is the minimal reader contract frames need.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// ReadFrame reads one frame payload. A clean EOF before the length prefix
// returns io.EOF (the peer hung up between messages); anything truncated
// mid-frame is io.ErrUnexpectedEOF.
func ReadFrame(r frameReader) ([]byte, error) { return readFrame(r, nil, 1) }

// readFrame is ReadFrame into buf's backing array when the frame fits it, and
// otherwise into a new one whose capacity is the length rounded up to a
// multiple of quantum (a power of two).
func readFrame(r frameReader, buf []byte, quantum uint64) ([]byte, error) {
	length, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame length: %w", err)
	}
	if length > MaxFrame {
		return nil, decodeErr("frame", "length %d exceeds MaxFrame %d", length, MaxFrame)
	}
	if uint64(cap(buf)) < length {
		buf = make([]byte, length, (length+quantum-1)&^(quantum-1))
	}
	payload := buf[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading %d-byte frame: %w", length, err)
	}
	return payload, nil
}

// --- field primitives ---

// codec is one direction of a message's field walk (Msg.fields): *enc
// appends each field's value, *dec reads each field into place. A dec keeps
// its first failure, naming that field, and reads nothing after it.
type codec interface {
	uvarint(v *uint64, field string)
	varint(v *int, field string)
	float(v *float64, field string)
	boolean(v *bool, field string)
	str(v *string, field string)
	bytes(v *[]byte, field string)
	// count carries a collection length: n on encode, the length read on
	// decode — refused, as 0, when the bytes left cannot hold that many
	// elements of at least minElem bytes each.
	count(n int, field string, minElem int) int
}

// sized makes *s n long for a decode, which starts from nil and keeps an
// empty collection nil so round-trips are exact; an encode's already is.
func sized[T any](s *[]T, n int) {
	if len(*s) != n {
		*s = make([]T, n)
	}
}

// refMin is the blob size from which a Conn queues a blob by reference rather
// than copying it into the batch. It is the smallest blob whose frame always
// has the widest (3-byte) length prefix, so the in-place framing in enc.frame
// never moves bytes past a referenced blob's offset.
const refMin = 16 << 10

// enc is an encoding in progress: the bytes in b, with every blob in refs
// spliced in at its offset. Encode's is flat, so b is the whole payload.
type enc struct {
	b    []byte
	refs []ref
	refd int  // bytes in refs
	flat bool // copy every blob into b
}

// ref is a blob queued by reference, which belongs at offset at of b.
type ref struct {
	at int
	p  []byte
}

func (e *enc) uvarint(v *uint64, _ string) { e.b = binary.AppendUvarint(e.b, *v) }
func (e *enc) varint(v *int, _ string)     { e.b = binary.AppendVarint(e.b, int64(*v)) }
func (e *enc) boolean(v *bool, _ string)   { e.b = append(e.b, b2u(*v)) }
func (e *enc) float(v *float64, _ string) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(*v))
}

func (e *enc) str(v *string, _ string) {
	e.b = append(binary.AppendUvarint(e.b, uint64(len(*v))), *v...)
}

func (e *enc) bytes(v *[]byte, _ string) {
	p := *v
	e.b = binary.AppendUvarint(e.b, uint64(len(p)))
	if e.flat || len(p) < refMin {
		e.b = append(e.b, p...)
		return
	}
	e.refs = append(e.refs, ref{len(e.b), p})
	e.refd += len(p)
}

func (e *enc) count(n int, _ string, _ int) int {
	e.b = binary.AppendUvarint(e.b, uint64(n))
	return n
}

// size is the encoded length, referenced blobs included.
func (e *enc) size() int { return len(e.b) + e.refd }

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// loanMin is the blob size from which a loaning decoder stops copying the
// payload out and returns a view of the frame. Below it the copy is cheaper
// than a frame taken out of circulation.
const loanMin = 4 << 10

type dec struct {
	b    []byte
	err  error // the first malformed field's *DecodeError
	loan bool  // a blob of loanMin bytes or more is returned as a view of b, not a copy
	lent bool  // one was: the decoded message aliases b
}

// fail records field as malformed unless an earlier field already was.
func (d *dec) fail(field, format string, args ...any) {
	if d.err == nil {
		d.err = decodeErr(field, format, args...)
	}
}

func (d *dec) uvarint(v *uint64, field string) {
	if d.err != nil {
		return
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(field, "truncated or overlong uvarint")
		return
	}
	*v, d.b = x, d.b[n:]
}

func (d *dec) varint(v *int, field string) {
	if d.err != nil {
		return
	}
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(field, "truncated or overlong varint")
		return
	}
	*v, d.b = int(x), d.b[n:]
}

func (d *dec) float(v *float64, field string) {
	if d.err != nil {
		return
	}
	if len(d.b) < 8 {
		d.fail(field, "float needs 8 bytes, %d remain", len(d.b))
		return
	}
	*v, d.b = math.Float64frombits(binary.LittleEndian.Uint64(d.b)), d.b[8:]
}

func (d *dec) boolean(v *bool, field string) {
	if d.err != nil {
		return
	}
	if len(d.b) == 0 {
		d.fail(field, "truncated bool")
		return
	}
	if d.b[0] > 1 {
		d.fail(field, "bool byte 0x%02x is neither 0 nor 1", d.b[0])
		return
	}
	*v, d.b = d.b[0] == 1, d.b[1:]
}

// raw reads a length-prefixed blob as a view into the frame; callers copy
// what they keep, because the frame buffer is reused — unless they record, as
// bytes does, that the message now needs the frame.
func (d *dec) raw(field string) []byte {
	var n uint64
	d.uvarint(&n, field)
	if n > uint64(len(d.b)) {
		d.fail(field, "length %d exceeds remaining %d bytes", n, len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *dec) str(v *string, field string) { *v = string(d.raw(field)) }

func (d *dec) bytes(v *[]byte, field string) {
	switch p := d.raw(field); {
	case len(p) == 0: // keep empty blobs nil so round-trips are exact
	case d.loan && len(p) >= loanMin:
		d.lent = true
		*v = p[:len(p):len(p)] // capped: an append must not reach the rest of the frame
	default:
		*v = append([]byte(nil), p...)
	}
}

func (d *dec) count(_ int, field string, minElem int) int {
	var n uint64
	d.uvarint(&n, field)
	if n > uint64(len(d.b)/minElem) {
		d.fail(field, "count %d exceeds what %d remaining bytes can hold", n, len(d.b))
		return 0
	}
	return int(n)
}

// BatchBytes is the pending size at which a batching writer (Queue … Flush)
// should stop queueing and flush. keepBytes is the largest buffer a Conn
// keeps between uses — twice that, since a full batch overshoots by the frame
// that closed it and append rounds capacities up; one that a burst or a jumbo
// frame grew beyond it is dropped, not retained.
const (
	BatchBytes = 256 << 10
	keepBytes  = 2 * BatchBytes
)

// Conn wraps one side of a protocol connection: framed, header-checked, and
// shared by concurrent senders through write combining (see the package
// doc). After a failed write every Queue, Flush and Send returns that error.
type Conn struct {
	mu      sync.Mutex // guards pending, queued, taken and err; never held across a write
	pending enc        // encoded frames awaiting the next write
	queued  uint64     // frames ever appended to pending: the last one's ticket
	taken   uint64     // the ticket up to which a write has taken them
	err     error      // first write error, sticky

	wmu sync.Mutex  // held across a write; guards out and iov
	out enc         // the batch being written, swapped with pending
	iov net.Buffers // out's bytes and blobs in stream order, for a gathered write
	w   io.Writer

	r    frameReader
	rbuf *[]byte // Recv's frame: reused for the next message unless this one borrowed it
	c    io.Closer
}

// NewConn performs the header exchange for this side (write ours, validate
// theirs) and returns the framed connection. rw must be buffered on the
// read side (e.g. a bufio.Reader); pass the raw conn as c for Close.
func NewConn(r frameReader, w io.Writer, c io.Closer) (*Conn, error) {
	if err := WriteHeader(w); err != nil {
		return nil, err
	}
	if err := ReadHeader(r); err != nil {
		return nil, err
	}
	return &Conn{w: w, r: r, c: c}, nil
}

// Send encodes one message and returns once its frame has been written, by
// this call or by a concurrent sender's. Between queueing the frame and
// taking the socket it yields the processor once, so that every sender
// already runnable queues behind it and one Write carries them all; with
// nothing else to run the yield returns at once. Safe for concurrent use.
func (c *Conn) Send(m Msg) error {
	ticket, _, err := c.queue(m)
	if err != nil {
		return err
	}
	runtime.Gosched()
	return c.flush(ticket)
}

// Queue appends m's frame to the pending buffer without writing and returns
// the bytes now pending. A blob of refMin bytes or more is queued by
// reference: it must not change until a Flush that carries it returns. A
// message that does not encode leaves the buffer as it was. Safe for
// concurrent use.
func (c *Conn) Queue(m Msg) (int, error) {
	_, size, err := c.queue(m)
	return size, err
}

// queue is Queue that also returns the frame's ticket: its position in the
// stream, which flush compares with what earlier writes have taken.
func (c *Conn) queue(m Msg) (ticket uint64, size int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, 0, c.err
	}
	if err = c.pending.frame(m); err == nil {
		c.queued++
	}
	return c.queued, c.pending.size(), err
}

// Flush writes everything pending in one write (the ticket no write has
// taken: only an empty buffer stops it).
func (c *Conn) Flush() error { return c.flush(^uint64(0)) }

// flush writes everything pending in one write unless the frame with this
// ticket has already been taken. Whoever holds the socket takes every frame
// queued so far, so a caller whose frame is gone knows a writer before it
// carried it — and set the sticky error before releasing the socket if that
// write failed. The ticket is what keeps a sender that lost the race for the
// socket from spending a syscall on the frames queued after its own: their
// senders are about to flush them themselves.
func (c *Conn) flush(ticket uint64) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	if c.err != nil || c.taken >= ticket || c.pending.size() == 0 {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.pending, c.out = c.out, c.pending
	c.taken = c.queued
	c.mu.Unlock()
	err := c.write()
	if err != nil {
		err = fmt.Errorf("wire: writing frames: %w", err)
		c.mu.Lock()
		c.err = err
		c.mu.Unlock()
	}
	return err
}

// write puts the batch in out on the socket — in one Write, or, when it
// references blobs, gathered with them in stream order — and empties out,
// keeping no reference to a blob. A writer that cannot gather (anything but a
// socket) receives a gathered batch one piece per Write.
func (c *Conn) write() error {
	out := &c.out
	var err error
	if len(out.refs) == 0 {
		_, err = c.w.Write(out.b)
	} else {
		iov, at := c.iov[:0], 0
		for _, r := range out.refs {
			iov = append(iov, out.b[at:r.at], r.p)
			at = r.at
		}
		if at < len(out.b) {
			iov = append(iov, out.b[at:])
		}
		c.iov = iov
		_, err = c.iov.WriteTo(c.w) // consumes c.iov; iov keeps the array
		clear(iov)
		clear(out.refs)
		c.iov, out.refs, out.refd = iov[:0], out.refs[:0], 0
	}
	out.b = out.b[:0]
	if cap(out.b) > keepBytes {
		out.b = nil
	}
	return err
}

// framePool holds receive frames between a Release and the Recv that reuses
// them, as *[]byte so that neither direction allocates.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// frameQuantum is what a new receive frame's capacity is rounded up to, so
// that a stream of like-sized messages whose varints grow by a byte now and
// then keeps fitting the frames already in the pool.
const frameQuantum = 4 << 10

// Recv reads and decodes the next message. Not safe for concurrent use —
// each connection has one reader goroutine. The returned message owns all of
// its memory and shares none with the connection: an Infer whose Payload is
// loanMin bytes or more takes the frame it arrived in with it (see
// (*Infer).Release), any other message is a copy.
func (c *Conn) Recv() (Msg, error) {
	if c.rbuf == nil {
		c.rbuf = framePool.Get().(*[]byte)
	}
	payload, err := readFrame(c.r, *c.rbuf, frameQuantum)
	if err != nil {
		return nil, err
	}
	*c.rbuf = payload[:0]
	d := dec{b: payload, loan: true}
	m, err := d.message()
	switch {
	case err == nil && d.lent:
		// Only an Infer carries a blob: it owns the frame from here on.
		m.(*Infer).frame, c.rbuf = c.rbuf, nil
	case cap(payload) > keepBytes:
		*c.rbuf = nil
	}
	return m, err
}

// Close closes the underlying connection (if a closer was supplied).
func (c *Conn) Close() error {
	if c.c == nil {
		return nil
	}
	return c.c.Close()
}
