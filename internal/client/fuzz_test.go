package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"edgesurgeon/internal/wire"
)

// FuzzClientDecode feeds arbitrary bytes to the client as the dispatcher's
// side of the conversation: whatever arrives, the client must never panic and
// must fail every path with one of its typed errors. This is the mirror of
// the wire package's frame fuzzers — it exercises the client's handshake
// validation and read loop end to end.
func FuzzClientDecode(f *testing.F) {
	frame := func(m wire.Msg) []byte {
		payload, err := wire.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	header := func() []byte {
		var buf bytes.Buffer
		if err := wire.WriteHeader(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}

	// Seeds walk the client progressively deeper: bad header, good header +
	// truncated frame, full handshake, handshake + response, handshake +
	// unknown tag, handshake + ErrorMsg.
	f.Add([]byte{})
	f.Add([]byte{'X', 'X', 'X', 'X', 1})
	f.Add(append([]byte{'E', 'S', 'W', 'P'}, 99))
	f.Add(header())
	f.Add(append(header(), 0x05, 0x01, 0x02)) // truncated frame
	welcome := append(header(), frame(&wire.Welcome{Servers: 2, Users: 4, ID: "client"})...)
	f.Add(welcome)
	f.Add(append(append([]byte{}, welcome...),
		frame(&wire.Response{Seq: 1, User: 0, Status: wire.StatusOK, Server: 0})...))
	f.Add(append(append([]byte{}, welcome...),
		frame(&wire.ErrorMsg{Text: "boom"})...))
	f.Add(append(append([]byte{}, welcome...),
		frame(&wire.Heartbeat{Time: 2})...))
	huge := append([]byte{}, header()...)
	huge = binary.AppendUvarint(huge, wire.MaxFrame+1) // oversized frame length
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		cnc, snc := net.Pipe()
		go func() {
			// Drain everything the client writes so its sends never block,
			// play the fuzz bytes as the dispatcher's output, then hang up.
			go io.Copy(io.Discard, snc)
			snc.Write(data)
			time.Sleep(time.Millisecond)
			snc.Close()
		}()
		c, err := New(cnc, Config{CallTimeout: 100 * time.Millisecond})
		if err != nil {
			var he *HandshakeError
			if !errors.As(err, &he) {
				t.Fatalf("handshake failure is %T (%v), want *HandshakeError", err, err)
			}
			return
		}
		// The bytes happened to contain a valid handshake: a call must still
		// terminate with a typed error or a response, never hang or panic.
		if _, err := c.Do(context.Background(), 0); err != nil {
			var (
				ce *CallError
				de *DisconnectError
				se *StatusError
			)
			if !errors.As(err, &ce) && !errors.As(err, &de) && !errors.As(err, &se) && !errors.Is(err, ErrClosed) {
				t.Fatalf("call failure is %T (%v), want a typed client error", err, err)
			}
		}
		c.Close()
	})
}
