package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// referenceDecode is Decode as it was before DecodeFrame: a field-by-field
// decoder that copies every string out of the frame. It is the oracle
// FuzzWireDecode holds DecodeFrame and Decode to, nothing else uses it.
func referenceDecode(frame []byte) (Message, uint32, error) {
	if len(frame) < headerLen {
		return nil, 0, fmt.Errorf("%w: %d bytes", errShort, len(frame))
	}
	if len(frame) > MaxFrame {
		return nil, 0, fmt.Errorf("%w: %d bytes", errTooLong, len(frame))
	}
	if got := int(binary.BigEndian.Uint16(frame)); got != len(frame)-2 {
		return nil, 0, fmt.Errorf("%w: prefix says %d, frame holds %d", errLength, got, len(frame)-2)
	}
	if frame[2] != version {
		return nil, 0, fmt.Errorf("%w: %d", errVersion, frame[2])
	}
	typ := Type(frame[3])
	seq := binary.BigEndian.Uint32(frame[4:8])
	d := refDecoder{buf: frame[headerLen:]}
	var m Message
	switch typ {
	case tHello:
		m = Hello{Node: d.string()}
	case TAck:
		m = Ack{AckSeq: d.uint32()}
	case TSignalSetup:
		m = SignalSetup{Conn: d.string(), Hop: d.uint16(), Bandwidth: d.float()}
	case TSignalCommit:
		m = SignalCommit{Conn: d.string(), Hop: d.uint16(), Bandwidth: d.float()}
	case TSignalAbort:
		m = SignalAbort{Conn: d.string(), Hop: d.uint16(), Reason: d.string()}
	case TAdvertise:
		m = Advertise{Conn: d.string(), Hop: d.uint16(), Round: d.uint16(), Stamp: d.float()}
	case TUpdate:
		m = Update{Conn: d.string(), Hop: d.uint16(), Rate: d.float()}
	case TShutdown:
		m = Shutdown{}
	case TLeaseRenew:
		m = LeaseRenew{Conn: d.string(), Bandwidth: d.float(), TTL: d.float()}
	case TResync:
		m = Resync{Conn: d.string(), Bandwidth: d.float(), TTL: d.float()}
	default:
		return nil, 0, fmt.Errorf("%w: %d", errType, uint8(typ))
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	if len(d.buf) != 0 {
		return nil, 0, fmt.Errorf("%w: %d bytes", errTrailing, len(d.buf))
	}
	return m, seq, nil
}

type refDecoder struct {
	buf []byte
	err error
}

func (d *refDecoder) take(n int) []byte {
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

func (d *refDecoder) uint16() uint16 {
	if b := d.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (d *refDecoder) uint32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *refDecoder) float() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.BigEndian.Uint64(b))
	}
	return 0
}

func (d *refDecoder) string() string {
	n := int(d.uint16())
	if d.err != nil {
		return ""
	}
	if n > maxString {
		d.err = fmt.Errorf("%w: claims %d bytes", errString, n)
		return ""
	}
	return string(d.take(n))
}

// frameOf lays a message out as the Frame DecodeFrame must produce for
// it: the header, the message's own fields, every other field zero.
func frameOf(seq uint32, m Message) Frame {
	f := Frame{Type: m.WireType(), Seq: seq}
	switch v := m.(type) {
	case Hello:
		f.Node = []byte(v.Node)
	case Ack:
		f.AckSeq = v.AckSeq
	case SignalSetup:
		f.Conn, f.Hop, f.Bandwidth = []byte(v.Conn), v.Hop, v.Bandwidth
	case SignalCommit:
		f.Conn, f.Hop, f.Bandwidth = []byte(v.Conn), v.Hop, v.Bandwidth
	case SignalAbort:
		f.Conn, f.Hop, f.Reason = []byte(v.Conn), v.Hop, []byte(v.Reason)
	case Advertise:
		f.Conn, f.Hop, f.Round, f.Stamp = []byte(v.Conn), v.Hop, v.Round, v.Stamp
	case Update:
		f.Conn, f.Hop, f.Rate = []byte(v.Conn), v.Hop, v.Rate
	case LeaseRenew:
		f.Conn, f.Bandwidth, f.TTL = []byte(v.Conn), v.Bandwidth, v.TTL
	case Resync:
		f.Conn, f.Bandwidth, f.TTL = []byte(v.Conn), v.Bandwidth, v.TTL
	}
	return f
}

// sameFrame compares two Frames field for field: strings by bytes (a
// nil view and an empty one are the same string), floats by bits.
func sameFrame(a, b Frame) bool {
	return a.Type == b.Type && a.Seq == b.Seq && a.AckSeq == b.AckSeq &&
		string(a.Node) == string(b.Node) && string(a.Conn) == string(b.Conn) && string(a.Reason) == string(b.Reason) &&
		a.Hop == b.Hop && a.Round == b.Round &&
		math.Float64bits(a.Bandwidth) == math.Float64bits(b.Bandwidth) &&
		math.Float64bits(a.Stamp) == math.Float64bits(b.Stamp) &&
		math.Float64bits(a.Rate) == math.Float64bits(b.Rate) &&
		math.Float64bits(a.TTL) == math.Float64bits(b.TTL)
}
