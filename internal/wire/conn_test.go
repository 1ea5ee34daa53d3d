package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// tcpPair returns two handshaken Conns joined by loopback TCP.
func tcpPair(t testing.TB) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		conn *Conn
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		b, err := ln.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		c, err := NewConn(bufio.NewReader(b), b, b)
		ch <- res{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewConn(bufio.NewReader(a), a, a)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { ca.Close(); r.conn.Close() })
	return ca, r.conn
}

// TestConcurrentSendsArriveIntact: whatever batches the combining writer
// forms, the peer decodes exactly the frames sent, each sender's in order.
func TestConcurrentSendsArriveIntact(t *testing.T) {
	const senders, each = 32, 1000
	ca, cb := tcpPair(t)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				if err := ca.Send(&Request{Seq: uint64(i), User: s}); err != nil {
					t.Errorf("sender %d send %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	go func() {
		wg.Wait()
		ca.Close() // the reader must then see a clean EOF, not a torn frame
	}()
	var last [senders]uint64
	for n := 0; ; n++ {
		m, err := cb.Recv()
		if err == io.EOF {
			if n != senders*each {
				t.Fatalf("decoded %d messages, want %d", n, senders*each)
			}
			return
		}
		if err != nil {
			t.Fatalf("recv %d: %v", n, err)
		}
		req, ok := m.(*Request)
		if !ok || req.User < 0 || req.User >= senders {
			t.Fatalf("recv %d: unexpected %+v", n, m)
		}
		if req.Seq != last[req.User]+1 {
			t.Fatalf("sender %d: seq %d arrived after %d", req.User, req.Seq, last[req.User])
		}
		last[req.User] = req.Seq
	}
}

// TestStreamIdentity: the bytes a Conn puts on the socket are exactly the
// concatenation of WriteFrame(Encode(m)), whether sent one by one or queued
// into one batch — so peers on either framing interoperate and the fuzz
// corpus stands. The script covers one-, two- and three-byte length prefixes.
func TestStreamIdentity(t *testing.T) {
	script := append(allMessages(),
		&ErrorMsg{Text: string(make([]byte, 127-2))}, // payload of exactly 127 bytes
		&ErrorMsg{Text: string(make([]byte, 128-2))}, // and the first two-byte prefix
		&Infer{Seq: 1, User: 2, DeviceSec: 0.5, Payload: make([]byte, 300)},
		&Infer{Seq: 2, User: 2, DeviceSec: 0.25, Payload: make([]byte, 1<<16)},
		&Infer{Seq: 3, User: 2, Payload: make([]byte, keepBytes+1)},
		&Request{Seq: 4, User: 5},
	)
	var want bytes.Buffer
	for _, m := range script {
		payload, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&want, payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range []string{"send each", "queue all, flush once"} {
		var got bytes.Buffer
		c := &Conn{w: &got}
		for _, m := range script {
			var err error
			if mode == "send each" {
				err = c.Send(m)
			} else {
				_, err = c.Queue(m)
			}
			if err != nil {
				t.Fatalf("%s: %T: %v", mode, m, err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: %d-byte stream differs from the %d-byte WriteFrame(Encode) reference", mode, got.Len(), want.Len())
		}
		// The jumbo frame grew a buffer past keepBytes; it must not be kept.
		if cap(c.out) > keepBytes || cap(c.pending.b) > keepBytes {
			t.Fatalf("%s: retained buffers of %d and %d bytes, the limit is %d", mode, cap(c.out), cap(c.pending.b), keepBytes)
		}
	}

	// A message that does not encode leaves what was queued before it intact.
	var got bytes.Buffer
	c := &Conn{w: &got}
	if _, err := c.Queue(&Request{Seq: 4, User: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Queue(&Infer{Payload: make([]byte, MaxFrame+1)}); err == nil {
		t.Fatal("an over-MaxFrame Infer was queued")
	}
	if err := c.Send(&Request{Seq: 4, User: 5}); err != nil {
		t.Fatal(err)
	}
	one, _ := Encode(&Request{Seq: 4, User: 5})
	var twice bytes.Buffer
	WriteFrame(&twice, one)
	WriteFrame(&twice, one)
	if !bytes.Equal(got.Bytes(), twice.Bytes()) {
		t.Fatalf("stream after a refused message: % x, want % x", got.Bytes(), twice.Bytes())
	}
}

// failingWriter accepts failAt-1 Writes, then fails every later one without
// taking a byte.
type failingWriter struct {
	mu      sync.Mutex
	calls   int
	failAt  int
	written bytes.Buffer
}

var errBoom = errors.New("boom")

func (w *failingWriter) Write(p []byte) (int, error) {
	runtime.Gosched() // widen the window in which other senders queue
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls++
	if w.calls >= w.failAt {
		return 0, errBoom
	}
	return w.written.Write(p)
}

// TestWriteErrorIsSticky: when the k-th Write fails, no Send reports success
// for a frame that never reached the writer, every Send from then on returns
// that first error, and the writer is not called again.
func TestWriteErrorIsSticky(t *testing.T) {
	const senders, each, failAt = 16, 200, 40
	w := &failingWriter{failAt: failAt}
	c := &Conn{w: w}
	var acked sync.Map // seq → true for every Send that returned nil
	var failed atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sawErr := false
			for i := 0; i < each; i++ {
				seq := uint64(s*each + i)
				err := c.Send(&Request{Seq: seq, User: s})
				switch {
				case err == nil && sawErr:
					t.Errorf("sender %d: Send succeeded after the connection had failed", s)
				case err == nil:
					acked.Store(seq, true)
				case !errors.Is(err, errBoom):
					t.Errorf("sender %d: got %v, want the writer's error", s, err)
				default:
					sawErr = true
					failed.Add(1)
				}
			}
		}(s)
	}
	wg.Wait()
	if failed.Load() == 0 {
		t.Fatal("the writer never failed; nothing was tested")
	}
	if w.calls != failAt {
		t.Fatalf("writer called %d times, want %d: a failed Conn must not write again", w.calls, failAt)
	}
	onWire := map[uint64]bool{}
	r := bufio.NewReader(&w.written)
	for {
		payload, err := ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("the accepted writes do not end on a frame boundary: %v", err)
		}
		m, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		onWire[m.(*Request).Seq] = true
	}
	acked.Range(func(seq, _ any) bool {
		if !onWire[seq.(uint64)] {
			t.Errorf("Send reported success for frame %d, which was never written", seq)
		}
		return true
	})
	if _, err := c.Queue(&Heartbeat{}); !errors.Is(err, errBoom) {
		t.Fatalf("Queue on a failed Conn: %v, want the sticky error", err)
	}
	if err := c.Flush(); !errors.Is(err, errBoom) {
		t.Fatalf("Flush on a failed Conn: %v, want the sticky error", err)
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up twice: a Conn's two write buffers
	f() // swap roles on every flush, and both must have grown
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestConnAllocations pins the copy budget of the activation hop: a small
// frame is sent without allocating, a 64 KiB Infer is sent without a
// payload-sized allocation, and receiving one costs exactly one — the copy
// the decoded message owns.
func TestConnAllocations(t *testing.T) {
	c := &Conn{w: io.Discard}
	req := &Request{Seq: 123456, User: 37}
	if n := testing.AllocsPerRun(200, func() {
		if err := c.Send(req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Send(&Request{}) allocates %v times per call, want 0", n)
	}
	infer := &Infer{Seq: 123456, User: 37, DeviceSec: 0.0123456789, Payload: make([]byte, 1<<16)}
	if b := allocBytesPerRun(50, func() {
		if err := c.Send(infer); err != nil {
			t.Fatal(err)
		}
	}); b >= 1024 {
		t.Errorf("sending a 64 KiB Infer allocates %.0f bytes, want < 1 KiB", b)
	}

	// 51 distinct frames: were a decoded message to alias the reused frame
	// buffer, the later ones would overwrite the first.
	const frames = 52
	var stream bytes.Buffer
	WriteHeader(&stream)
	for i := 0; i < frames; i++ {
		m := &Infer{Seq: uint64(i), User: 37, DeviceSec: 0.5, Payload: bytes.Repeat([]byte{byte(i + 1)}, 1<<16)}
		payload, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		WriteFrame(&stream, payload)
	}
	rc, err := NewConn(bufio.NewReader(&stream), io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	var first *Infer
	if b := allocBytesPerRun(frames-2, func() {
		m, err := rc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = m.(*Infer)
		}
	}); b < 1<<16 || b >= 1<<16+1024 {
		t.Errorf("receiving a 64 KiB Infer allocates %.0f bytes, want one payload-sized block (64 KiB + < 1 KiB)", b)
	}
	if first.Seq != 0 || !bytes.Equal(first.Payload, bytes.Repeat([]byte{1}, 1<<16)) {
		t.Fatal("a message returned by Recv changed when later frames were read")
	}
}

// countingWriter counts the Writes a Conn makes on its socket.
type countingWriter struct {
	w      io.Writer
	writes atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.w.Write(p)
}

// BenchmarkConnSendParallel: many goroutines sending small frames on one
// loopback connection, the shape of a client under load and of an agent
// returning results. frames/write is what write combining buys: 1 means every
// frame paid its own syscall.
func BenchmarkConnSendParallel(b *testing.B) {
	ca, cb := tcpPair(b)
	cw := &countingWriter{w: ca.w}
	ca.w = cw
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, err := cb.Recv(); err != nil {
				return
			}
		}
	}()
	req := &Request{Seq: 123456, User: 37}
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := ca.Send(req); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/float64(cw.writes.Load()), "frames/write")
	ca.Close()
	<-drained
}

// BenchmarkInfer64kRoundTrip: the activation hop and its answer on one
// loopback connection pair — a 64 KiB Infer out, an InferResult back.
func BenchmarkInfer64kRoundTrip(b *testing.B) {
	ca, cb := tcpPair(b)
	go func() {
		for {
			m, err := cb.Recv()
			if err != nil {
				return
			}
			in := m.(*Infer)
			if cb.Send(&InferResult{Seq: in.Seq, User: in.User, UplinkSec: 0.004321, ServerSec: 0.00987}) != nil {
				return
			}
		}
	}()
	infer := &Infer{Seq: 123456, User: 37, DeviceSec: 0.0123456789, Payload: make([]byte, 1<<16)}
	b.SetBytes(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ca.Send(infer); err != nil {
			b.Fatal(err)
		}
		if _, err := ca.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}
