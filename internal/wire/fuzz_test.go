package wire

import (
	"bytes"
	"testing"
)

// FuzzWireDecode pins the core safety property of the protocol: Decode never
// panics on arbitrary bytes, and anything it does accept re-encodes to a
// payload that decodes to the same message (floats are their bits, but a
// varint may arrive overlong and re-encodes minimal — so we compare via a
// second decode rather than with the input). It is differential too: the
// loaning decode Recv uses accepts and refuses exactly what the copying one
// does, with the same message or the same error, and differs only in whose
// memory a large blob is — the input's, which is how Recv lends a frame.
func FuzzWireDecode(f *testing.F) {
	for _, m := range append(allMessages(),
		&Infer{Seq: 1, User: 2, Payload: bytes.Repeat([]byte{7}, loanMin-1)},
		&Infer{Seq: 1, User: 2, Payload: bytes.Repeat([]byte{7}, loanMin)},
	) {
		payload, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		d := dec{b: data, loan: true}
		loaned, lerr := d.message()
		if err != nil {
			if lerr == nil || lerr.Error() != err.Error() {
				t.Fatalf("copying decode refused with %q, loaning decode said %v", err, lerr)
			}
			return
		}
		if lerr != nil {
			t.Fatalf("copying decode accepted a %T, loaning decode refused: %v", m, lerr)
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded %T but re-encode failed: %v", m, err)
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded %T failed to decode: %v", m, err)
		}
		re2, err := Encode(m2)
		if err != nil {
			t.Fatalf("second re-encode of %T failed: %v", m2, err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("%T not stable under encode/decode: % x vs % x", m, re, re2)
		}

		// Encoded bytes, type tag first, stand in for the exported fields:
		// DeepEqual would call a NaN unequal to itself.
		if lre, err := Encode(loaned); err != nil || !bytes.Equal(lre, re) {
			t.Fatalf("loaning decode of a %T yielded a different %T (%v)", m, loaned, err)
		}
		in, _ := loaned.(*Infer)
		if d.lent != (in != nil && len(in.Payload) >= loanMin) {
			t.Fatalf("lent = %v for %T", d.lent, loaned)
		}
		for i := range data {
			data[i] ^= 0xFF
		}
		if after, _ := Encode(m); !bytes.Equal(after, re) {
			t.Fatalf("a %T returned by Decode changed with the caller's buffer", m)
		}
		if after, _ := Encode(loaned); bytes.Equal(after, re) == d.lent {
			t.Fatalf("after the input changed, the loaning decode's %T (lent %v) is the wrong side of unchanged", loaned, d.lent)
		}
	})
}

// FuzzWireFrame pins that frame reading on arbitrary bytes never panics and
// never allocates beyond MaxFrame.
func FuzzWireFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, []byte("payload"))
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			p, err := ReadFrame(r)
			if err != nil {
				return
			}
			if len(p) > MaxFrame {
				t.Fatalf("ReadFrame returned %d bytes > MaxFrame", len(p))
			}
		}
	})
}
