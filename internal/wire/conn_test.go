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
// forms, the peer decodes exactly the frames sent, each sender's in order —
// every eighth sender's frames carrying one shared read-only blob of refMin
// bytes, as the dispatcher's do, so batches mix copied and gathered frames.
func TestConcurrentSendsArriveIntact(t *testing.T) {
	const senders, each = 32, 1000
	ca, cb := tcpPair(t)
	blob := bytes.Repeat([]byte{0x5A}, refMin)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				var m Msg = &Request{Seq: uint64(i), User: s}
				if s%8 == 0 {
					m = &Infer{Seq: uint64(i), User: s, Payload: blob}
				}
				if err := ca.Send(m); err != nil {
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
		var user int
		var seq uint64
		switch m := m.(type) {
		case *Request:
			user, seq = m.User, m.Seq
		case *Infer:
			if !bytes.Equal(m.Payload, blob) {
				t.Fatalf("recv %d: sender %d's frame %d arrived with a damaged payload", n, m.User, m.Seq)
			}
			m.Release()
			user, seq = m.User, m.Seq
		}
		if user < 0 || user >= senders || (user%8 == 0) != (m.Type() == TypeInfer) {
			t.Fatalf("recv %d: unexpected %T from sender %d", n, m, user)
		}
		if seq != last[user]+1 {
			t.Fatalf("sender %d: seq %d arrived after %d", user, seq, last[user])
		}
		last[user] = seq
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
		if cap(c.out.b) > keepBytes || cap(c.pending.b) > keepBytes {
			t.Fatalf("%s: retained buffers of %d and %d bytes, the limit is %d", mode, cap(c.out.b), cap(c.pending.b), keepBytes)
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

// TestQueuedBlobIsReferenced pins the write side's ownership rule: a blob of
// refMin bytes or more is queued by reference, so a change to it between
// Queue and Flush reaches the wire — the caller must leave it alone until the
// Flush returns — while a smaller one is copied at Queue. After the write the
// Conn holds no reference to either.
func TestQueuedBlobIsReferenced(t *testing.T) {
	for _, size := range []int{refMin - 1, 1 << 16} {
		var got bytes.Buffer
		c := &Conn{w: &got}
		payload := make([]byte, size)
		if _, err := c.Queue(&Infer{Seq: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		payload[size-1] = 0xAB
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		frame, err := ReadFrame(bufio.NewReader(&got))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if changed, referenced := m.(*Infer).Payload[size-1] == 0xAB, size >= refMin; changed != referenced {
			t.Fatalf("%d-byte payload: a change after Queue reached the wire: %v, want %v", size, changed, referenced)
		}
		for _, e := range []*enc{&c.out, &c.pending} {
			held := e.refd != 0
			for _, r := range e.refs[:cap(e.refs)] {
				held = held || r.p != nil
			}
			if held {
				t.Fatalf("%d-byte payload: the Conn still references a blob after the write", size)
			}
		}
		for _, p := range c.iov[:cap(c.iov)] {
			if p != nil {
				t.Fatalf("%d-byte payload: the Conn's write vector still references a buffer after the write", size)
			}
		}
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

	// A sender whose frame rode another's batch writes nothing itself; when
	// that batch's Write failed it must report the failure all the same.
	// Step by step, as Send does it: the rider queues, a second sender's
	// Write takes both frames and fails, and only then does the rider reach
	// the socket.
	w = &failingWriter{failAt: 1}
	c = &Conn{w: w}
	ticket, _, err := c.queue(&Request{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(&Request{Seq: 2}); !errors.Is(err, errBoom) {
		t.Fatalf("the sender whose Write failed: got %v, want the writer's error", err)
	}
	if err := c.flush(ticket); !errors.Is(err, errBoom) {
		t.Fatalf("the sender whose frame was in the failed batch: got %v, want the writer's error", err)
	}
	if w.calls != 1 {
		t.Fatalf("writer called %d times, want 1: the rider had nothing left to write", w.calls)
	}
}

// TestSendersShareAWrite: senders that are runnable together pay one Write
// between them. On one P each of 16 goroutines queues its frame and yields
// before any of them takes the socket, so the first to come back carries all
// 16 and the rest find their frames gone. The stream is still the
// concatenation of WriteFrame(Encode(m)), in the order the frames were queued.
func TestSendersShareAWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const senders = 16
	for trial := 1; ; trial++ {
		var got bytes.Buffer
		cw := &countingWriter{w: &got}
		c := &Conn{w: cw}
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if err := c.Send(&Request{Seq: uint64(s), User: s}); err != nil {
					t.Errorf("sender %d: %v", s, err)
				}
			}(s)
		}
		wg.Wait()
		stream := append([]byte(nil), got.Bytes()...)
		var want bytes.Buffer
		seen := map[uint64]bool{}
		for r := bufio.NewReader(&got); ; {
			payload, err := ReadFrame(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			m, err := Decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			seen[m.(*Request).Seq] = true
			again, _ := Encode(m)
			WriteFrame(&want, again)
		}
		if len(seen) != senders {
			t.Fatalf("the stream carried %d distinct frames, want %d", len(seen), senders)
		}
		if !bytes.Equal(stream, want.Bytes()) {
			t.Fatalf("the %d-byte stream differs from the %d-byte WriteFrame(Encode) reference", len(stream), want.Len())
		}
		// Every 61st pass the scheduler serves the global run queue, where a
		// yielded sender waits, ahead of the local one, where the others have
		// yet to start: a trial that straddles such a pass sees one sender
		// back early with a partial batch, 2 Writes. The next trial cannot.
		n := cw.writes.Load()
		if n == 1 {
			return
		}
		if n > 2 || trial == 3 {
			t.Fatalf("trial %d: %d senders made %d Writes, want 1", trial, senders, n)
		}
	}
}

// TestSendAtConcurrencyOneWritesAtOnce: a lone sender's yield finds nothing
// to run, so every Send is written before it returns — one Write per frame —
// and nothing was started to do it later: no flusher goroutine, no timer.
func TestSendAtConcurrencyOneWritesAtOnce(t *testing.T) {
	const frames = 100
	var got bytes.Buffer
	cw := &countingWriter{w: &got}
	c := &Conn{w: cw}
	before := runtime.NumGoroutine()
	for i := 0; i < frames; i++ {
		if err := c.Send(&Request{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if n := cw.writes.Load(); n != int64(i+1) {
			t.Fatalf("after %d Sends the writer had been called %d times", i+1, n)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines before, %d after: Send started something", before, after)
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

// inferStream is a handshake and then frames Infers of size bytes each, the
// i-th filled with byte(i+1) and carrying Seq i.
func inferStream(t testing.TB, frames, size int) *Conn {
	t.Helper()
	var stream bytes.Buffer
	WriteHeader(&stream)
	for i := 0; i < frames; i++ {
		m := &Infer{Seq: uint64(i), User: 37, DeviceSec: 0.5, Payload: bytes.Repeat([]byte{byte(i + 1)}, size)}
		payload, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		WriteFrame(&stream, payload)
	}
	c, err := NewConn(bufio.NewReader(&stream), io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// recvInfer is Recv of an Infer that must be message seq of an inferStream.
func recvInfer(t testing.TB, c *Conn, seq, size int) *Infer {
	t.Helper()
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	in := m.(*Infer)
	checkInfer(t, in, seq, size)
	return in
}

func checkInfer(t testing.TB, in *Infer, seq, size int) {
	t.Helper()
	ok := in.Seq == uint64(seq) && len(in.Payload) == size
	for _, b := range in.Payload {
		ok = ok && b == byte(seq+1)
	}
	if !ok {
		t.Fatalf("Infer %d does not hold the %d bytes of 0x%02x it was sent with", in.Seq, size, byte(seq+1))
	}
}

// TestConnAllocations pins the copy budget of the activation hop: a small
// frame is sent without allocating, a 64 KiB Infer is sent without a
// payload-sized allocation, and receiving one allocates nothing of that size
// either once the receiver releases what it was lent — and exactly one frame,
// never a frame and a copy, when it does not.
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

	// Distinct frames throughout: were a frame reused while a message still
	// aliased it, the later ones would overwrite the earlier.
	const frames, size = 52, 1 << 16
	rc := inferStream(t, 2*frames+1, size)
	first := recvInfer(t, rc, 0, size)
	seq := 1
	b := allocBytesPerRun(frames-2, func() {
		recvInfer(t, rc, seq, size).Release()
		seq++
	})
	// Under the race detector sync.Pool drops a quarter of what it is given.
	if !raceEnabled && b >= 1024 {
		t.Errorf("receiving and releasing a 64 KiB Infer allocates %.0f bytes, want < 1 KiB", b)
	}
	var held []*Infer
	if b := allocBytesPerRun(frames-2, func() {
		held = append(held, recvInfer(t, rc, seq, size))
		seq++
	}); b < size || b >= size+size/2 {
		t.Errorf("receiving a 64 KiB Infer and keeping it allocates %.0f bytes, want one frame-sized block (64 KiB and the rounding), not two", b)
	}
	checkInfer(t, first, 0, size)
	for i, in := range held {
		checkInfer(t, in, seq-len(held)+i, size)
	}
}

// TestReleaseContract: Release is idempotent, leaves an Infer the caller
// built alone, and has nothing to return for a payload small enough to have
// been copied; a released frame is the next Recv's, a jumbo one nobody's.
func TestReleaseContract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // keeps this goroutine on one sync.Pool shard

	built := &Infer{Seq: 1, Payload: make([]byte, 1<<16)}
	built.Release()
	if len(built.Payload) != 1<<16 {
		t.Fatal("Release took the payload of an Infer the caller built")
	}

	// loanMin−1 bytes are copied out, so the Conn keeps its frame.
	rc := inferStream(t, 3, loanMin-1)
	small := recvInfer(t, rc, 0, loanMin-1)
	if small.frame != nil || rc.rbuf == nil {
		t.Fatal("a payload under loanMin borrowed the frame")
	}
	frame := &(*rc.rbuf)[:1][0]
	recvInfer(t, rc, 1, loanMin-1)
	if &(*rc.rbuf)[:1][0] != frame {
		t.Fatal("the frame was not reused after a message that did not borrow it")
	}
	small.Release()
	checkInfer(t, small, 0, loanMin-1)

	// loanMin bytes are lent; released, the frame serves the next message.
	rc = inferStream(t, 3, loanMin)
	lent := recvInfer(t, rc, 0, loanMin)
	if lent.frame == nil || rc.rbuf != nil {
		t.Fatal("a payload of loanMin bytes was not lent the frame")
	}
	if cap(lent.Payload) != len(lent.Payload) {
		t.Fatal("a lent payload has capacity to append into the frame")
	}
	frame = &lent.Payload[0]
	lent.Release()
	lent.Release()
	if lent.Payload != nil || lent.frame != nil {
		t.Fatal("Release left the payload with the message")
	}
	next := recvInfer(t, rc, 1, loanMin)
	if !raceEnabled && &next.Payload[0] != frame {
		t.Error("the released frame was not the one the next Recv used")
	}
	last := recvInfer(t, rc, 2, loanMin) // next is unreleased: this one cannot share its frame
	checkInfer(t, next, 1, loanMin)
	next.Release()
	last.Release()

	// A frame above keepBytes is lent like any other and never pooled.
	rc = inferStream(t, 1, keepBytes+1)
	jumbo := recvInfer(t, rc, 0, keepBytes+1)
	if jumbo.frame == nil {
		t.Fatal("a jumbo payload was copied")
	}
	jumbo.Release()
	if jumbo.Payload != nil {
		t.Fatal("Release left a jumbo payload with the message")
	}
	f := framePool.Get().(*[]byte)
	if cap(*f) > keepBytes {
		t.Fatalf("a %d-byte frame was pooled, the limit is %d", cap(*f), keepBytes)
	}
	framePool.Put(f)
}

// TestLoanedFramesAreNotRecycledEarly: a reader hands Infers to concurrent
// handlers, as the agent does; each yields, checks every byte of its payload
// against its own Seq, and only then releases. A frame that reached another
// message while still borrowed fails the byte check, or the race detector.
func TestLoanedFramesAreNotRecycledEarly(t *testing.T) {
	const handlers, total, size = 8, 2000, 1 << 14
	ca, cb := tcpPair(t)
	go func() {
		for seq := 0; seq < total; seq++ {
			if err := ca.Send(&Infer{Seq: uint64(seq), Payload: bytes.Repeat([]byte{byte(seq)}, size)}); err != nil {
				t.Errorf("send %d: %v", seq, err)
				return
			}
		}
	}()
	work := make(chan *Infer)
	var wg sync.WaitGroup
	for h := 0; h < handlers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for in := range work {
				runtime.Gosched()
				if len(in.Payload) != size {
					t.Errorf("Infer %d arrived with %d bytes", in.Seq, len(in.Payload))
				}
				for i, b := range in.Payload {
					if b != byte(in.Seq) {
						t.Errorf("Infer %d: byte %d is 0x%02x, want 0x%02x: its frame was reused while on loan", in.Seq, i, b, byte(in.Seq))
						break
					}
				}
				in.Release()
			}
		}()
	}
	for seq := 0; seq < total; seq++ {
		m, err := cb.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", seq, err)
		}
		work <- m.(*Infer)
	}
	close(work)
	wg.Wait()
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
// frame paid its own syscall (1.02 before senders yielded between queueing
// and writing, ~25 since: a loopback write never blocks, so without the yield
// no frame is ever queued while another write is in flight).
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
			err = cb.Send(&InferResult{Seq: in.Seq, User: in.User, UplinkSec: 0.004321, ServerSec: 0.00987})
			in.Release()
			if err != nil {
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
