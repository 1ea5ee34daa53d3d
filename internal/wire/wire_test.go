package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// allMessages is one exemplar per message type, with special floats where
// telemetry can legitimately carry them (the serve quarantine strikes on
// NaN samples, so the wire must deliver them intact) and a -0 and a NaN with
// payload bits, which only a bit-exact float encoding round-trips.
func allMessages() []Msg {
	return []Msg{
		&Hello{Role: RoleAgent, ID: "s01", Server: 1},
		&Hello{Role: RoleClient},
		&Welcome{Servers: 2, Users: 8, ID: "s01"},
		&Heartbeat{Time: 12.25},
		&Heartbeat{Time: math.Copysign(0, -1)},
		&Allocation{
			Epoch: 7, UplinkBps: 2.4e7, RTT: 0.004,
			Entries: []AllocEntry{
				{User: 0, Partition: 9, Theta: 0.62, Exits: []int{3, 6}, ComputeShare: 0.5, BandwidthShare: 0.25},
				{User: 3, Partition: 0, ComputeShare: 0.125, BandwidthShare: 0.75},
			},
		},
		&Allocation{Epoch: 8, UplinkBps: 1e6, RTT: 0},
		&AllocAck{Epoch: 7},
		&Infer{Seq: 41, User: 3, DeviceSec: 0.012, Payload: []byte("activation")},
		&Infer{Seq: 42, User: 0, DeviceSec: 0},
		&InferResult{Seq: 41, User: 3, Status: StatusOK, UplinkSec: 0.02, QueueSec: 0.001, ServerSec: 0.008},
		&Telemetry{Time: 30, UplinkBps: 8e6, Healthy: true},
		&Telemetry{Time: math.NaN(), UplinkBps: math.Inf(1), Healthy: false},
		&Telemetry{Time: math.Float64frombits(0xfff4_dead_beef_0001), UplinkBps: math.Inf(-1)},
		&Request{Seq: 9, User: 2},
		&Response{Seq: 9, User: 2, Status: StatusOK, Server: 1,
			DeviceSec: 0.01, UplinkSec: 0.02, QueueSec: 0, ServerSec: 0.005, TotalSec: 0.035},
		&Response{Seq: 10, User: 5, Status: StatusFailed, Server: -1},
		&ErrorMsg{Text: "unknown user 99"},
	}
}

// sameEncoding reports whether got re-encodes to exactly the payload want
// encodes to. Every field is on the wire and every float is its bits, so this
// is field equality with NaN equal to itself, payload bits and all.
func sameEncoding(t *testing.T, want, got Msg) bool {
	t.Helper()
	a, err := Encode(want)
	if err != nil {
		t.Fatalf("encode %T: %v", want, err)
	}
	b, err := Encode(got)
	if err != nil {
		t.Fatalf("re-encode %T: %v", got, err)
	}
	return bytes.Equal(a, b)
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, m := range allMessages() {
		payload, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := Decode(payload)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !sameEncoding(t, m, got) {
			t.Fatalf("round trip %T: sent %+v got %+v", m, m, got)
		}
	}
}

// TestEveryFieldIsOnTheWire: every exported field of every message type, each
// set to a value of its own, comes back bit for bit from the copying decode
// and from the loaning one Recv uses — so a field added to a message but not
// to its walk fails here.
func TestEveryFieldIsOnTheWire(t *testing.T) {
	seen := map[MsgType]bool{}
	for _, ex := range allMessages() {
		if seen[ex.Type()] {
			continue
		}
		seen[ex.Type()] = true
		v := reflect.New(reflect.TypeOf(ex).Elem())
		k := 0
		fillDistinct(t, v.Elem(), &k)
		m := v.Interface().(Msg)
		if h, ok := m.(*Hello); ok {
			h.Role = RoleClient // the one field decode checks the value of
		}
		payload, err := Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		copied, err := Decode(payload)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		d := dec{b: payload, loan: true}
		loaned, err := d.message()
		if err != nil {
			t.Fatalf("loaning decode %T: %v", m, err)
		}
		if _, ok := m.(*Infer); ok && !d.lent {
			t.Fatalf("a %d-byte payload was not lent", loanMin)
		}
		for _, got := range []Msg{copied, loaned} {
			if path := sameBits(reflect.ValueOf(m).Elem(), reflect.ValueOf(got).Elem(), fmt.Sprintf("%T", m)); path != "" {
				t.Fatalf("%s did not survive the wire: sent %+v got %+v", path, m, got)
			}
		}
	}
	if len(seen) != int(TypeError) {
		t.Fatalf("allMessages covers %d message types, want all %d", len(seen), TypeError)
	}
}

// fillDistinct sets every exported field under v to a non-zero value no other
// field holds: alternately a NaN with payload bits and a fraction for floats,
// negative ints, strings, and slices of three (a blob of loanMin bytes).
func fillDistinct(t *testing.T, v reflect.Value, k *int) {
	*k++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillDistinct(t, v.Field(i), k)
			}
		}
	case reflect.Int:
		v.SetInt(-0x10001 * int64(*k))
	case reflect.Uint64:
		v.SetUint(0x10001 * uint64(*k))
	case reflect.Float64:
		if *k%2 == 0 {
			v.SetFloat(math.Float64frombits(0x7ff4_dead_0000_0000 | uint64(*k)))
		} else {
			v.SetFloat(float64(*k) / 3)
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("field %d", *k))
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			p := bytes.Repeat([]byte{byte(*k)}, loanMin)
			p[0] = 0xA5
			v.SetBytes(p)
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), k)
		}
	default:
		t.Fatalf("fillDistinct: no distinct value for a %s field", v.Type())
	}
}

// sameBits compares the exported fields under a and b, floats by their bits,
// and returns the path of the first that differs, "" when none does.
func sameBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if f := a.Type().Field(i); f.IsExported() {
				if p := sameBits(a.Field(i), b.Field(i), path+"."+f.Name); p != "" {
					return p
				}
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return path
		}
		for i := 0; i < a.Len(); i++ {
			if p := sameBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
	default:
		if a.Interface() != b.Interface() {
			return path
		}
	}
	return ""
}

// TestFloatIsEightBytes: a float is its 8 bits, little-endian, and a float
// cut short is refused naming its field.
func TestFloatIsEightBytes(t *testing.T) {
	v := math.Float64frombits(0x7ff0_0000_0000_0001) // a signalling NaN
	payload, err := Encode(&Heartbeat{Time: v})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(TypeHeartbeat), 0x01, 0, 0, 0, 0, 0, 0xf0, 0x7f}
	if !bytes.Equal(payload, want) {
		t.Fatalf("Heartbeat{NaN 0x7ff0000000000001} encodes to % x, want % x", payload, want)
	}
	for cut := 1; cut < len(payload); cut++ {
		_, err := Decode(payload[:cut])
		var de *DecodeError
		if !errors.As(err, &de) || de.Field != "heartbeat time" {
			t.Fatalf("a float cut to %d bytes: got %v, want a *DecodeError on heartbeat time", cut-1, err)
		}
	}
}

func TestRoundTripOverConn(t *testing.T) {
	// Real TCP, not net.Pipe: the handshake writes both directions before
	// reading, which needs the kernel socket buffer a pipe doesn't have.
	ca, cb := tcpPair(t)

	msgs := allMessages()
	go func() {
		for _, m := range msgs {
			if err := ca.Send(m); err != nil {
				t.Errorf("send %T: %v", m, err)
				return
			}
		}
	}()
	for _, want := range msgs {
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("recv (want %T): %v", want, err)
		}
		if !sameEncoding(t, want, got) {
			t.Fatalf("over conn: sent %+v got %+v", want, got)
		}
	}
}

func TestForeignMagicRejected(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader([]byte("HTTP/1.1 400\r\n\r\n")))
	err := ReadHeader(r)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("foreign magic: got %v, want *DecodeError", err)
	}
}

// TestWrongVersionRejected: a peer still speaking version 1 (string floats,
// copied blobs) is refused at the header, and the error names both versions.
func TestWrongVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.WriteByte(1) // uvarint version 1
	err := ReadHeader(bufio.NewReader(&buf))
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("wrong version: got %v, want *DecodeError", err)
	}
	if !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("wrong version: %q does not name both versions", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	// Writer side refuses to emit one.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("WriteFrame accepted an over-MaxFrame payload")
	}
	// Reader side refuses the length prefix before allocating.
	buf.Reset()
	var lenBuf [10]byte
	n := putUvarint(lenBuf[:], MaxFrame+1)
	buf.Write(lenBuf[:n])
	_, err := ReadFrame(bufio.NewReader(&buf))
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("oversize frame: got %v, want *DecodeError", err)
	}
}

func TestTornFrame(t *testing.T) {
	payload, err := Encode(&Heartbeat{Time: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail with EOF/UnexpectedEOF, never panic or
	// return a message.
	for cut := 0; cut < len(full); cut++ {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(full[:cut])))
		if err == nil {
			t.Fatalf("torn frame at %d/%d bytes decoded successfully", cut, len(full))
		}
		if cut == 0 && !errors.Is(err, io.EOF) {
			t.Fatalf("empty stream: got %v, want io.EOF", err)
		}
		if cut > 0 && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("torn frame at %d bytes: got %v, want unexpected EOF", cut, err)
		}
	}
}

func TestTruncatedMessageRejected(t *testing.T) {
	for _, m := range allMessages() {
		payload, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut++ {
			got, err := Decode(payload[:cut])
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("truncated %T at %d/%d bytes: got %+v, %v; want a *DecodeError", m, cut, len(payload), got, err)
			}
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	payload, err := Encode(&AllocAck{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(payload, 0xFF)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	if _, err := Decode([]byte{200, 1}); err == nil {
		t.Fatal("unknown message type decoded successfully")
	}
}

func TestLyingCollectionCountRejected(t *testing.T) {
	// An Allocation header claiming count entries, followed by rest zero bytes.
	lie := func(count uint64, rest int) []byte {
		b, err := Encode(&Allocation{Epoch: 1, UplinkBps: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		var n [10]byte
		b = append(b[:len(b)-1], n[:putUvarint(n[:], count)]...) // over the empty Entries' count 0
		return append(b, make([]byte, rest)...)
	}
	// 2^40 entries and no bytes for them must be refused before allocation.
	if _, err := Decode(lie(1<<40, 0)); err == nil {
		t.Fatal("lying entry count decoded successfully")
	}
	// So must 2 entries in 53 bytes, which a bound of 8 bytes an entry would
	// let through: an entry is at least 27 (two varints, an exit count and
	// three floats: the size the walk gives a zero AllocEntry), so the count
	// itself is refused, before the make.
	var de *DecodeError
	if _, err := Decode(lie(2, 2*27-1)); !errors.As(err, &de) || de.Field != "allocation entries" {
		t.Fatalf("2 entries in %d bytes: got %v, want a *DecodeError on allocation entries", 2*27-1, err)
	}
	if _, err := Decode(lie(2, 2*27)); err != nil {
		t.Fatalf("2 zero entries in %d bytes: %v", 2*27, err)
	}
}

// putUvarint is a tiny local copy to avoid importing encoding/binary here.
func putUvarint(buf []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		buf[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	buf[i] = byte(x)
	return i + 1
}
