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

// Msg is one protocol message.
type Msg interface {
	Type() MsgType
	encode(e *enc)
	decode(d *dec) error
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
	e.uvarint(uint64(m.Type()))
	m.encode(e)
	if len(e.b) > MaxFrame {
		return nil, fmt.Errorf("wire: %T encodes to %d bytes, over MaxFrame %d", m, len(e.b), MaxFrame)
	}
	return e.b, nil
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
	e.uvarint(uint64(m.Type()))
	m.encode(e)
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
	t, err := d.uvarint("message type")
	if err != nil {
		return nil, err
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
	if err := m.decode(d); err != nil {
		return nil, err
	}
	if len(d.b) != 0 {
		return nil, decodeErr("message", "%d trailing bytes after %T", len(d.b), m)
	}
	return m, nil
}

func (m *Hello) encode(e *enc) {
	e.uvarint(m.Role)
	e.str(m.ID)
	e.varint(int64(m.Server))
}

func (m *Hello) decode(d *dec) error {
	var err error
	if m.Role, err = d.uvarint("hello role"); err != nil {
		return err
	}
	if m.Role != RoleAgent && m.Role != RoleClient {
		return decodeErr("hello role", "unknown role %d", m.Role)
	}
	if m.ID, err = d.str("hello id"); err != nil {
		return err
	}
	server, err := d.varint("hello server")
	if err != nil {
		return err
	}
	m.Server = int(server)
	return nil
}

func (m *Welcome) encode(e *enc) {
	e.varint(int64(m.Servers))
	e.varint(int64(m.Users))
	e.str(m.ID)
}

func (m *Welcome) decode(d *dec) error {
	servers, err := d.varint("welcome servers")
	if err != nil {
		return err
	}
	users, err := d.varint("welcome users")
	if err != nil {
		return err
	}
	m.Servers, m.Users = int(servers), int(users)
	m.ID, err = d.str("welcome id")
	return err
}

func (m *Heartbeat) encode(e *enc) { e.float(m.Time) }

func (m *Heartbeat) decode(d *dec) error {
	var err error
	m.Time, err = d.float("heartbeat time")
	return err
}

func (m *Allocation) encode(e *enc) {
	e.uvarint(m.Epoch)
	e.float(m.UplinkBps)
	e.float(m.RTT)
	e.uvarint(uint64(len(m.Entries)))
	for i := range m.Entries {
		en := &m.Entries[i]
		e.varint(int64(en.User))
		e.varint(int64(en.Partition))
		e.float(en.Theta)
		e.uvarint(uint64(len(en.Exits)))
		for _, x := range en.Exits {
			e.varint(int64(x))
		}
		e.float(en.ComputeShare)
		e.float(en.BandwidthShare)
	}
}

func (m *Allocation) decode(d *dec) error {
	var err error
	if m.Epoch, err = d.uvarint("allocation epoch"); err != nil {
		return err
	}
	if m.UplinkBps, err = d.float("allocation uplink"); err != nil {
		return err
	}
	if m.RTT, err = d.float("allocation rtt"); err != nil {
		return err
	}
	n, err := d.count("allocation entries", 27) // two varints, an exit count and three floats
	if err != nil {
		return err
	}
	if n == 0 {
		return nil // keep Entries nil so round-trips are exact
	}
	m.Entries = make([]AllocEntry, n)
	for i := range m.Entries {
		en := &m.Entries[i]
		user, err := d.varint("entry user")
		if err != nil {
			return err
		}
		en.User = int(user)
		part, err := d.varint("entry partition")
		if err != nil {
			return err
		}
		en.Partition = int(part)
		if en.Theta, err = d.float("entry theta"); err != nil {
			return err
		}
		nx, err := d.count("entry exits", 1)
		if err != nil {
			return err
		}
		if nx > 0 {
			en.Exits = make([]int, nx)
			for j := range en.Exits {
				x, err := d.varint("entry exit")
				if err != nil {
					return err
				}
				en.Exits[j] = int(x)
			}
		}
		if en.ComputeShare, err = d.float("entry compute share"); err != nil {
			return err
		}
		if en.BandwidthShare, err = d.float("entry bandwidth share"); err != nil {
			return err
		}
	}
	return nil
}

func (m *AllocAck) encode(e *enc) { e.uvarint(m.Epoch) }

func (m *AllocAck) decode(d *dec) error {
	var err error
	m.Epoch, err = d.uvarint("alloc-ack epoch")
	return err
}

func (m *Infer) encode(e *enc) {
	e.uvarint(m.Seq)
	e.varint(int64(m.User))
	e.float(m.DeviceSec)
	e.bytes(m.Payload)
}

func (m *Infer) decode(d *dec) error {
	var err error
	if m.Seq, err = d.uvarint("infer seq"); err != nil {
		return err
	}
	user, err := d.varint("infer user")
	if err != nil {
		return err
	}
	m.User = int(user)
	if m.DeviceSec, err = d.float("infer device sec"); err != nil {
		return err
	}
	m.Payload, err = d.bytes("infer payload")
	return err
}

func (m *InferResult) encode(e *enc) {
	e.uvarint(m.Seq)
	e.varint(int64(m.User))
	e.uvarint(m.Status)
	e.float(m.UplinkSec)
	e.float(m.QueueSec)
	e.float(m.ServerSec)
}

func (m *InferResult) decode(d *dec) error {
	var err error
	if m.Seq, err = d.uvarint("result seq"); err != nil {
		return err
	}
	user, err := d.varint("result user")
	if err != nil {
		return err
	}
	m.User = int(user)
	if m.Status, err = d.uvarint("result status"); err != nil {
		return err
	}
	if m.UplinkSec, err = d.float("result uplink sec"); err != nil {
		return err
	}
	if m.QueueSec, err = d.float("result queue sec"); err != nil {
		return err
	}
	m.ServerSec, err = d.float("result server sec")
	return err
}

func (m *Telemetry) encode(e *enc) {
	e.float(m.Time)
	e.float(m.UplinkBps)
	e.boolean(m.Healthy)
}

func (m *Telemetry) decode(d *dec) error {
	var err error
	if m.Time, err = d.float("telemetry time"); err != nil {
		return err
	}
	if m.UplinkBps, err = d.float("telemetry uplink"); err != nil {
		return err
	}
	m.Healthy, err = d.boolean("telemetry healthy")
	return err
}

func (m *Request) encode(e *enc) {
	e.uvarint(m.Seq)
	e.varint(int64(m.User))
}

func (m *Request) decode(d *dec) error {
	var err error
	if m.Seq, err = d.uvarint("request seq"); err != nil {
		return err
	}
	user, err := d.varint("request user")
	if err != nil {
		return err
	}
	m.User = int(user)
	return nil
}

func (m *Response) encode(e *enc) {
	e.uvarint(m.Seq)
	e.varint(int64(m.User))
	e.uvarint(m.Status)
	e.varint(int64(m.Server))
	e.float(m.DeviceSec)
	e.float(m.UplinkSec)
	e.float(m.QueueSec)
	e.float(m.ServerSec)
	e.float(m.TotalSec)
}

func (m *Response) decode(d *dec) error {
	var err error
	if m.Seq, err = d.uvarint("response seq"); err != nil {
		return err
	}
	user, err := d.varint("response user")
	if err != nil {
		return err
	}
	m.User = int(user)
	if m.Status, err = d.uvarint("response status"); err != nil {
		return err
	}
	server, err := d.varint("response server")
	if err != nil {
		return err
	}
	m.Server = int(server)
	if m.DeviceSec, err = d.float("response device sec"); err != nil {
		return err
	}
	if m.UplinkSec, err = d.float("response uplink sec"); err != nil {
		return err
	}
	if m.QueueSec, err = d.float("response queue sec"); err != nil {
		return err
	}
	if m.ServerSec, err = d.float("response server sec"); err != nil {
		return err
	}
	m.TotalSec, err = d.float("response total sec")
	return err
}

func (m *ErrorMsg) encode(e *enc) { e.str(m.Text) }

func (m *ErrorMsg) decode(d *dec) error {
	var err error
	m.Text, err = d.str("error text")
	return err
}
