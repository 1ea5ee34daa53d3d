package wire

import (
	"encoding/binary"
	"fmt"
)

// MsgType discriminates the message set.
type MsgType uint64

// Message type codes. The codes are wire format — never renumber.
const (
	TypeHello       MsgType = 1
	TypeWelcome     MsgType = 2
	TypeHeartbeat   MsgType = 3
	TypeAllocation  MsgType = 4
	TypeAllocAck    MsgType = 5
	TypeInfer       MsgType = 6
	TypeInferResult MsgType = 7
	TypeTelemetry   MsgType = 8
	TypeRequest     MsgType = 9
	TypeResponse    MsgType = 10
	TypeError       MsgType = 11
)

// Peer roles carried in Hello.
const (
	RoleAgent  = 1 // an edgeagent process serving one edge server
	RoleClient = 2 // a load source submitting inference requests
)

// Request/handoff statuses.
const (
	StatusOK       = 0 // completed
	StatusFailed   = 1 // no route: assigned server down and no fallback
	StatusRejected = 2 // malformed: unknown user, unconfigured allocation
)

// Msg is one protocol message. Its fields method is its only description on
// the wire: the walk Encode, Conn.Queue, Decode and Conn.Recv all run.
type Msg interface {
	Type() MsgType
	fields(c codec)
}

// Hello opens every connection: the peer announces its role. Agents carry
// the server index they serve and their canonical ID
// (telemetry.SourceID(server)); clients leave both zero-valued.
type Hello struct {
	Role   uint64
	ID     string
	Server int
}

// Welcome answers a Hello: the dispatcher confirms the deployment shape so
// the peer can sanity-check it is attached to the right scenario.
type Welcome struct {
	Servers int
	Users   int
	ID      string // echo of the registered ID (assigned for clients)
}

// Heartbeat is a keep-alive carrying the sender's virtual clock.
type Heartbeat struct {
	Time float64
}

// AllocEntry is one user's slice of an allocation push: the surgery point
// (partition, exits, theta) plus the GPU and uplink shares the plan grants
// the user on this agent's server.
type AllocEntry struct {
	User           int
	Partition      int
	Theta          float64
	Exits          []int
	ComputeShare   float64
	BandwidthShare float64
}

// Allocation pushes one server's complete allocation table, derived from
// the live joint.Plan: every user currently assigned to the receiving
// agent's server, with the per-server planning uplink the shares were
// computed against. Epoch increases with every push; an agent discards
// stale epochs.
type Allocation struct {
	Epoch     uint64
	UplinkBps float64 // planning-time uplink the plan allocated against
	RTT       float64 // device-server round trip in seconds
	Entries   []AllocEntry
}

// AllocAck confirms an allocation epoch was installed.
type AllocAck struct {
	Epoch uint64
}

// Infer hands one request off at the partition point: the device prefix
// has run (DeviceSec, computed on the device-side cost model) and Payload
// stands in for the boundary activation. The agent owes an InferResult.
//
// An Infer returned by Conn.Recv with a large Payload owns the receive frame
// the payload lies in; Release hands the frame back.
type Infer struct {
	Seq       uint64
	User      int
	DeviceSec float64
	Payload   []byte

	frame *[]byte // the receive frame Payload aliases, nil when it aliases none
}

// Release returns the receive frame m's Payload lies in, if it lies in one,
// for a later Recv to reuse, and sets Payload to nil: the bytes are no longer
// m's to read. It is optional — an unreleased frame is collected with m — and
// idempotent, and does nothing to an Infer that Recv did not return or whose
// payload was small enough to be copied out.
func (m *Infer) Release() {
	f := m.frame
	if f == nil {
		return
	}
	m.frame, m.Payload = nil, nil
	if cap(*f) <= keepBytes {
		framePool.Put(f)
	}
}

// InferResult reports one handoff's server-side outcome with the per-stage
// timing split the paper's latency decomposition uses.
type InferResult struct {
	Seq       uint64
	User      int
	Status    uint64
	UplinkSec float64 // modeled transfer time of the boundary activation
	QueueSec  float64 // time queued behind the user's earlier requests
	ServerSec float64 // suffix execution at the allocated GPU share
}

// Telemetry is an agent's periodic self-report: its observed uplink rate
// and health, stamped with its virtual clock. The dispatcher folds these
// into full-width serve samples (source = the agent's ID).
type Telemetry struct {
	Time      float64
	UplinkBps float64
	Healthy   bool
}

// Request is a client submitting one inference task for a user.
type Request struct {
	Seq  uint64
	User int
}

// Response answers a Request with the end-to-end stage breakdown. Server
// is the edge server that executed the suffix, -1 when the task completed
// on-device (by plan or by early exit before the partition point).
type Response struct {
	Seq       uint64
	User      int
	Status    uint64
	Server    int
	DeviceSec float64
	UplinkSec float64 // transfer + RTT (zero when the task never crossed)
	QueueSec  float64
	ServerSec float64
	TotalSec  float64
}

// ErrorMsg carries a fatal protocol-level error before the sender closes.
type ErrorMsg struct {
	Text string
}

// Type implementations.
func (*Hello) Type() MsgType       { return TypeHello }
func (*Welcome) Type() MsgType     { return TypeWelcome }
func (*Heartbeat) Type() MsgType   { return TypeHeartbeat }
func (*Allocation) Type() MsgType  { return TypeAllocation }
func (*AllocAck) Type() MsgType    { return TypeAllocAck }
func (*Infer) Type() MsgType       { return TypeInfer }
func (*InferResult) Type() MsgType { return TypeInferResult }
func (*Telemetry) Type() MsgType   { return TypeTelemetry }
func (*Request) Type() MsgType     { return TypeRequest }
func (*Response) Type() MsgType    { return TypeResponse }
func (*ErrorMsg) Type() MsgType    { return TypeError }

// Encode renders a message to its frame payload (type tag + fields).
func Encode(m Msg) ([]byte, error) {
	e := &enc{b: make([]byte, 0, 64), flat: true}
	e.message(m)
	if len(e.b) > MaxFrame {
		return nil, fmt.Errorf("wire: %T encodes to %d bytes, over MaxFrame %d", m, len(e.b), MaxFrame)
	}
	return e.b, nil
}

// message appends m's payload: its type tag, then its fields.
func (e *enc) message(m Msg) {
	e.b = binary.AppendUvarint(e.b, uint64(m.Type()))
	m.fields(e)
}

// frame appends m's whole frame — uvarint length prefix, then the payload
// Encode would return — to e, encoding in place. The prefix length is only
// known once the payload is, so the widest one (3 bytes at MaxFrame) is
// reserved and a payload under 16 KiB, whose prefix is shorter, is moved down
// over the gap; such a payload references no blob (refMin). On error e is left
// as it was.
func (e *enc) frame(m Msg) error {
	const widest = 3
	start, refs, refd := len(e.b), len(e.refs), e.refd
	e.b = append(e.b, make([]byte, widest)...)
	e.message(m)
	n := e.size() - refd - start - widest
	if n > MaxFrame {
		clear(e.refs[refs:])
		e.b, e.refs, e.refd = e.b[:start], e.refs[:refs], refd
		return fmt.Errorf("wire: %T encodes to %d bytes, over MaxFrame %d", m, n, MaxFrame)
	}
	if k := binary.PutUvarint(e.b[start:], uint64(n)); k < widest {
		e.b = append(e.b[:start+k], e.b[start+widest:]...)
	}
	return nil
}

// Decode parses one frame payload into its typed message. Unknown types
// and malformed fields return typed *DecodeError; trailing garbage after a
// well-formed message is a framing bug and rejected too. The message is a
// copy: it shares no memory with payload.
func Decode(payload []byte) (Msg, error) {
	return (&dec{b: payload}).message()
}

// message decodes the one message d.b holds.
func (d *dec) message() (Msg, error) {
	var t uint64
	if d.uvarint(&t, "message type"); d.err != nil {
		return nil, d.err
	}
	var m Msg
	switch MsgType(t) {
	case TypeHello:
		m = &Hello{}
	case TypeWelcome:
		m = &Welcome{}
	case TypeHeartbeat:
		m = &Heartbeat{}
	case TypeAllocation:
		m = &Allocation{}
	case TypeAllocAck:
		m = &AllocAck{}
	case TypeInfer:
		m = &Infer{}
	case TypeInferResult:
		m = &InferResult{}
	case TypeTelemetry:
		m = &Telemetry{}
	case TypeRequest:
		m = &Request{}
	case TypeResponse:
		m = &Response{}
	case TypeError:
		m = &ErrorMsg{}
	default:
		return nil, decodeErr("message type", "unknown type %d", t)
	}
	if m.fields(d); len(d.b) != 0 {
		d.fail("message", "%d trailing bytes after %T", len(d.b), m)
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

// Each fields method below lists its message's fields in wire order, each
// with the name a DecodeError reports. Adding a field means one line here
// and a Version bump (DESIGN.md, "Adding a wire field").

func (m *Hello) fields(c codec) {
	c.uvarint(&m.Role, "hello role")
	if d, ok := c.(*dec); ok && m.Role != RoleAgent && m.Role != RoleClient { // a decode-only check
		d.fail("hello role", "unknown role %d", m.Role)
	}
	c.str(&m.ID, "hello id")
	c.varint(&m.Server, "hello server")
}

func (m *Welcome) fields(c codec) {
	c.varint(&m.Servers, "welcome servers")
	c.varint(&m.Users, "welcome users")
	c.str(&m.ID, "welcome id")
}

func (m *Heartbeat) fields(c codec) { c.float(&m.Time, "heartbeat time") }

// entryMin is the fewest bytes an AllocEntry encodes to — its zero value's
// size — so an entry count the rest of the frame cannot hold is refused
// before the entries are allocated.
var entryMin = func() int {
	var e enc
	(&AllocEntry{}).fields(&e)
	return len(e.b)
}()

func (m *Allocation) fields(c codec) {
	c.uvarint(&m.Epoch, "allocation epoch")
	c.float(&m.UplinkBps, "allocation uplink")
	c.float(&m.RTT, "allocation rtt")
	sized(&m.Entries, c.count(len(m.Entries), "allocation entries", entryMin))
	for i := range m.Entries {
		m.Entries[i].fields(c)
	}
}

func (en *AllocEntry) fields(c codec) {
	c.varint(&en.User, "entry user")
	c.varint(&en.Partition, "entry partition")
	c.float(&en.Theta, "entry theta")
	sized(&en.Exits, c.count(len(en.Exits), "entry exits", 1))
	for i := range en.Exits {
		c.varint(&en.Exits[i], "entry exit")
	}
	c.float(&en.ComputeShare, "entry compute share")
	c.float(&en.BandwidthShare, "entry bandwidth share")
}

func (m *AllocAck) fields(c codec) { c.uvarint(&m.Epoch, "alloc-ack epoch") }

func (m *Infer) fields(c codec) {
	c.uvarint(&m.Seq, "infer seq")
	c.varint(&m.User, "infer user")
	c.float(&m.DeviceSec, "infer device sec")
	c.bytes(&m.Payload, "infer payload")
}

func (m *InferResult) fields(c codec) {
	c.uvarint(&m.Seq, "result seq")
	c.varint(&m.User, "result user")
	c.uvarint(&m.Status, "result status")
	c.float(&m.UplinkSec, "result uplink sec")
	c.float(&m.QueueSec, "result queue sec")
	c.float(&m.ServerSec, "result server sec")
}

func (m *Telemetry) fields(c codec) {
	c.float(&m.Time, "telemetry time")
	c.float(&m.UplinkBps, "telemetry uplink")
	c.boolean(&m.Healthy, "telemetry healthy")
}

func (m *Request) fields(c codec) {
	c.uvarint(&m.Seq, "request seq")
	c.varint(&m.User, "request user")
}

func (m *Response) fields(c codec) {
	c.uvarint(&m.Seq, "response seq")
	c.varint(&m.User, "response user")
	c.uvarint(&m.Status, "response status")
	c.varint(&m.Server, "response server")
	c.float(&m.DeviceSec, "response device sec")
	c.float(&m.UplinkSec, "response uplink sec")
	c.float(&m.QueueSec, "response queue sec")
	c.float(&m.ServerSec, "response server sec")
	c.float(&m.TotalSec, "response total sec")
}

func (m *ErrorMsg) fields(c codec) { c.str(&m.Text, "error text") }
