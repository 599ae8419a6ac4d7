// Package wire is the binary codec for the control-plane messages the
// signal and maxmin protocols exchange when they run over a real
// transport (internal/testnet, cmd/armnode). One frame carries one
// message:
//
//	0:2   uint16 BE  payload length (bytes after this prefix)
//	2     uint8      version (currently 1)
//	3     uint8      message type
//	4:8   uint32 BE  sender sequence number
//	8:    body       type-specific fields
//
// Body fields are fixed-width big-endian: float64 as IEEE-754 bits,
// hop/round counters as uint16, strings as uint16 length + bytes. A
// frame maps one-to-one onto a UDP datagram; the redundant length
// prefix lets receivers reject truncated or concatenated datagrams and
// lets the same frames travel a byte stream unchanged.
//
// Decode is total: any byte slice either yields a valid message or an
// error — never a panic — and claimed lengths are validated against the
// bytes actually present before any allocation, so a malformed frame
// cannot make the decoder allocate more than the frame's own size.
// DecodeFrame is the same validation into a caller-owned Frame whose
// strings are views into the frame: it allocates nothing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// version is the current frame format version.
const version = 1

// MaxFrame bounds a whole encoded frame. It comfortably exceeds any
// message the protocols produce while keeping every frame well inside a
// single unfragmented UDP datagram.
const MaxFrame = 1024

// maxString bounds any encoded string field (connection IDs, node
// names, abort reasons).
const maxString = 255

// Type identifies a message. The set is closed; it covers every control
// message the signal plane (setup, commit confirmation, abort) and the
// maxmin protocol (ADVERTISE, UPDATE) send, plus transport handshake
// and teardown.
type Type uint8

const (
	// tHello announces a node joining the testnet.
	tHello Type = iota + 1
	// TAck acknowledges receipt of the frame with the echoed sequence.
	TAck
	// TSignalSetup is one forward-pass hop of a setup session placing a
	// tentative hold.
	TSignalSetup
	// TSignalCommit is one reverse-pass hop of the commit confirmation.
	TSignalCommit
	// TSignalAbort tears tentative holds down after a failure.
	TSignalAbort
	// TAdvertise is one hop of a maxmin ADVERTISE sweep.
	TAdvertise
	// TUpdate is one hop of a maxmin UPDATE commit.
	TUpdate
	// TShutdown asks a node process to exit after acking.
	TShutdown
	// TLeaseRenew renews the hold lease covering one live connection's
	// reservation on the receiving node's links (or, with an empty
	// connection, acts as a pure liveness heartbeat). An agent that
	// stops acking renewals is declared dead after the miss budget and
	// the controller reclaims the leases — releasing the reservations
	// routed over the agent's links instead of leaking them.
	TLeaseRenew
	// TResync replays one live connection's reservation state to an
	// agent that restarted (or healed from a partition) with an empty
	// mirror — the re-LISTEN handshake's state transfer.
	TResync

	typeCount = iota + 1
)

var typeNames = [typeCount]string{
	tHello:        "hello",
	TAck:          "ack",
	TSignalSetup:  "signal-setup",
	TSignalCommit: "signal-commit",
	TSignalAbort:  "signal-abort",
	TAdvertise:    "advertise",
	TUpdate:       "update",
	TShutdown:     "shutdown",
	TLeaseRenew:   "lease-renew",
	TResync:       "resync",
}

// String returns the stable wire name (used in node traces).
func (t Type) String() string {
	if t == 0 || int(t) >= typeCount {
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
	return typeNames[t]
}

// Decode errors.
var (
	errShort    = errors.New("wire: frame truncated")
	errLength   = errors.New("wire: length prefix mismatch")
	errVersion  = errors.New("wire: unsupported version")
	errType     = errors.New("wire: unknown message type")
	errTrailing = errors.New("wire: trailing bytes after message")
	errTooLong  = errors.New("wire: frame exceeds MaxFrame")
	errString   = errors.New("wire: string field too long")
)

// Message is the sealed payload interface: exactly the types in this
// file implement it.
type Message interface {
	// WireType identifies the concrete message.
	WireType() Type
}

// Hello announces a node to the controller (and doubles as a liveness
// probe: the controller retries it until the node acks).
type Hello struct {
	Node string
}

// Ack acknowledges the frame whose sequence number it echoes.
type Ack struct {
	AckSeq uint32
}

// SignalSetup carries one forward-pass hop of a setup session: the node
// owning the link records it and acks; the hold itself lives in the
// controller's plane (the protocol state machine is untouched).
type SignalSetup struct {
	Conn      string
	Hop       uint16
	Bandwidth float64
}

// SignalCommit carries one reverse-pass hop of the commit confirmation.
type SignalCommit struct {
	Conn      string
	Hop       uint16
	Bandwidth float64
}

// SignalAbort carries a rollback sweep hop.
type SignalAbort struct {
	Conn   string
	Hop    uint16
	Reason string
}

// Advertise carries one hop of a maxmin ADVERTISE sweep.
type Advertise struct {
	Conn  string
	Hop   uint16
	Round uint16
	Stamp float64
}

// Update carries one hop of a maxmin UPDATE commit.
type Update struct {
	Conn string
	Hop  uint16
	Rate float64
}

// Shutdown asks the receiving node process to exit after acking.
type Shutdown struct{}

// LeaseRenew renews the hold lease for one live connection whose
// reservation crosses the receiving agent's links. Conn may be empty:
// a bare heartbeat probing agent liveness when no connection is routed
// through it. TTL is the lease duration in seconds from receipt — a
// relative coordinate, so controller and node wall clocks need not
// agree on an epoch. The node prunes mirrored connections whose lease
// lapses, so a controller partitioned away cannot pin node-side state
// forever.
type LeaseRenew struct {
	Conn      string
	Bandwidth float64
	TTL       float64
}

// Resync replays one live connection's reservation to an agent whose
// mirror state was lost (crash/restart) or may have decayed
// (partition): the state-transfer half of the re-LISTEN handshake. It
// carries the same lease TTL a renewal would.
type Resync struct {
	Conn      string
	Bandwidth float64
	TTL       float64
}

func (Hello) WireType() Type        { return tHello }
func (Ack) WireType() Type          { return TAck }
func (SignalSetup) WireType() Type  { return TSignalSetup }
func (SignalCommit) WireType() Type { return TSignalCommit }
func (SignalAbort) WireType() Type  { return TSignalAbort }
func (Advertise) WireType() Type    { return TAdvertise }
func (Update) WireType() Type       { return TUpdate }
func (Shutdown) WireType() Type     { return TShutdown }
func (LeaseRenew) WireType() Type   { return TLeaseRenew }
func (Resync) WireType() Type       { return TResync }

// headerLen is the fixed frame overhead before the body.
const headerLen = 8

// Encode builds a complete frame for m with the given sequence number.
func Encode(seq uint32, m Message) ([]byte, error) {
	return AppendFrame(nil, seq, m)
}

// AppendFrame appends m's frame to dst and returns the extended slice —
// the allocation-free path when the caller reuses a buffer.
func AppendFrame(dst []byte, seq uint32, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, version, 0)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	// The type byte is set from the switch, not from m.WireType(): a
	// dynamic call (or handing m to fmt) makes m escape, and then every
	// caller passing a concrete message allocates a box for it.
	var typ Type
	var err error
	switch v := m.(type) {
	case Hello:
		typ = tHello
		dst, err = appendString(dst, v.Node)
	case Ack:
		typ = TAck
		dst = binary.BigEndian.AppendUint32(dst, v.AckSeq)
	case SignalSetup:
		typ = TSignalSetup
		dst, err = appendString(dst, v.Conn)
		dst = binary.BigEndian.AppendUint16(dst, v.Hop)
		dst = appendFloat(dst, v.Bandwidth)
	case SignalCommit:
		typ = TSignalCommit
		dst, err = appendString(dst, v.Conn)
		dst = binary.BigEndian.AppendUint16(dst, v.Hop)
		dst = appendFloat(dst, v.Bandwidth)
	case SignalAbort:
		typ = TSignalAbort
		dst, err = appendString(dst, v.Conn)
		dst = binary.BigEndian.AppendUint16(dst, v.Hop)
		if err == nil {
			dst, err = appendString(dst, v.Reason)
		}
	case Advertise:
		typ = TAdvertise
		dst, err = appendString(dst, v.Conn)
		dst = binary.BigEndian.AppendUint16(dst, v.Hop)
		dst = binary.BigEndian.AppendUint16(dst, v.Round)
		dst = appendFloat(dst, v.Stamp)
	case Update:
		typ = TUpdate
		dst, err = appendString(dst, v.Conn)
		dst = binary.BigEndian.AppendUint16(dst, v.Hop)
		dst = appendFloat(dst, v.Rate)
	case Shutdown:
		typ = TShutdown
	case LeaseRenew:
		typ = TLeaseRenew
		dst, err = appendString(dst, v.Conn)
		dst = appendFloat(dst, v.Bandwidth)
		dst = appendFloat(dst, v.TTL)
	case Resync:
		typ = TResync
		dst, err = appendString(dst, v.Conn)
		dst = appendFloat(dst, v.Bandwidth)
		dst = appendFloat(dst, v.TTL)
	default:
		return dst[:start], fmt.Errorf("%w: %v", errType, reflect.TypeOf(m))
	}
	if err != nil {
		return dst[:start], err
	}
	dst[start+3] = byte(typ)
	payload := len(dst) - start - 2
	if len(dst)-start > MaxFrame {
		return dst[:start], fmt.Errorf("%w: %d bytes", errTooLong, len(dst)-start)
	}
	binary.BigEndian.PutUint16(dst[start:], uint16(payload))
	return dst, nil
}

// Frame is a decoded frame laid flat: the header, then every body field
// of every message type, of which only Type's own are set. It is owned
// by the caller, so a receiver decoding into one Frame per socket
// allocates nothing per frame. The string fields are views into the
// decoded bytes, valid until the caller reuses that buffer; copy one
// (string(f.Conn)) to keep it.
type Frame struct {
	Type Type
	Seq  uint32

	Node   []byte // Hello
	AckSeq uint32 // Ack

	Conn   []byte // every hop, lease and resync message
	Hop    uint16 // signal and maxmin hops
	Round  uint16 // Advertise
	Reason []byte // SignalAbort

	Bandwidth float64 // SignalSetup, SignalCommit, LeaseRenew, Resync
	Stamp     float64 // Advertise
	Rate      float64 // Update
	TTL       float64 // LeaseRenew, Resync
}

// DecodeFrame parses one complete frame into f, overwriting all of it.
// The frame must be consumed exactly: trailing bytes, truncation, or a
// length prefix that disagrees with the slice are errors, never panics.
// On error f holds no meaningful message.
func DecodeFrame(frame []byte, f *Frame) error {
	*f = Frame{}
	if len(frame) < headerLen {
		return fmt.Errorf("%w: %d bytes", errShort, len(frame))
	}
	if len(frame) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", errTooLong, len(frame))
	}
	if got := int(binary.BigEndian.Uint16(frame)); got != len(frame)-2 {
		return fmt.Errorf("%w: prefix says %d, frame holds %d", errLength, got, len(frame)-2)
	}
	if frame[2] != version {
		return fmt.Errorf("%w: %d", errVersion, frame[2])
	}
	f.Type = Type(frame[3])
	f.Seq = binary.BigEndian.Uint32(frame[4:8])
	d := decoder{buf: frame[headerLen:]}
	switch f.Type {
	case tHello:
		f.Node = d.bytes()
	case TAck:
		f.AckSeq = d.uint32()
	case TSignalSetup, TSignalCommit:
		f.Conn, f.Hop, f.Bandwidth = d.bytes(), d.uint16(), d.float()
	case TSignalAbort:
		f.Conn, f.Hop, f.Reason = d.bytes(), d.uint16(), d.bytes()
	case TAdvertise:
		f.Conn, f.Hop, f.Round, f.Stamp = d.bytes(), d.uint16(), d.uint16(), d.float()
	case TUpdate:
		f.Conn, f.Hop, f.Rate = d.bytes(), d.uint16(), d.float()
	case TShutdown:
	case TLeaseRenew, TResync:
		f.Conn, f.Bandwidth, f.TTL = d.bytes(), d.float(), d.float()
	default:
		return fmt.Errorf("%w: %d", errType, uint8(f.Type))
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%w: %d bytes", errTrailing, len(d.buf))
	}
	return nil
}

// Decode parses one complete frame into a Message that owns its strings
// — DecodeFrame plus the copies, for callers that keep what they decode.
func Decode(frame []byte) (Message, uint32, error) {
	var f Frame
	if err := DecodeFrame(frame, &f); err != nil {
		return nil, 0, err
	}
	return f.message(), f.Seq, nil
}

// message copies a successfully decoded frame out into its Message.
func (f *Frame) message() Message {
	switch f.Type {
	case tHello:
		return Hello{Node: string(f.Node)}
	case TAck:
		return Ack{AckSeq: f.AckSeq}
	case TSignalSetup:
		return SignalSetup{Conn: string(f.Conn), Hop: f.Hop, Bandwidth: f.Bandwidth}
	case TSignalCommit:
		return SignalCommit{Conn: string(f.Conn), Hop: f.Hop, Bandwidth: f.Bandwidth}
	case TSignalAbort:
		return SignalAbort{Conn: string(f.Conn), Hop: f.Hop, Reason: string(f.Reason)}
	case TAdvertise:
		return Advertise{Conn: string(f.Conn), Hop: f.Hop, Round: f.Round, Stamp: f.Stamp}
	case TUpdate:
		return Update{Conn: string(f.Conn), Hop: f.Hop, Rate: f.Rate}
	case TLeaseRenew:
		return LeaseRenew{Conn: string(f.Conn), Bandwidth: f.Bandwidth, TTL: f.TTL}
	case TResync:
		return Resync{Conn: string(f.Conn), Bandwidth: f.Bandwidth, TTL: f.TTL}
	default: // TShutdown, the one message without a body
		return Shutdown{}
	}
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > maxString {
		return dst, fmt.Errorf("%w: %d bytes", errString, len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

// decoder consumes body fields with latched error state, so field reads
// chain without per-field checks and a short buffer degrades to zero
// values plus an error rather than a panic.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("%w: need %d more bytes", errShort, n-len(d.buf))
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) float() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// bytes reads a length-prefixed string as a view into the frame. The
// claimed length is checked against both the string bound and the bytes
// actually remaining, so a hostile prefix can claim nothing the frame
// does not hold.
func (d *decoder) bytes() []byte {
	n := int(d.uint16())
	if d.err != nil {
		return nil
	}
	if n > maxString {
		d.err = fmt.Errorf("%w: claims %d bytes", errString, n)
		return nil
	}
	return d.take(n)
}
