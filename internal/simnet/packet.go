// Package simnet models the network data plane: packets, links, ports with
// egress queues, ECN marking, PFC flow control, loss injection, and the two
// device kinds (hosts and switches). It is deliberately protocol-agnostic:
// the RoCE transport (internal/roce) and the Cepheus accelerator
// (internal/core) plug into it through small interfaces.
package simnet

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Addr is an IPv4-like 32-bit address. Multicast group IDs (McstID in the
// paper) live in the class-D range so IsMulticast can classify packets the
// way the accelerator's parser does.
type Addr uint32

// MulticastBase is the start of the class-D style multicast range used for
// McstIDs.
const MulticastBase Addr = 0xE0000000

// IsMulticast reports whether a is a multicast group ID (McstID).
func (a Addr) IsMulticast() bool { return a >= MulticastBase }

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// PacketType enumerates the wire-level packet kinds the simulator carries.
type PacketType uint8

const (
	// Data is a RoCE data packet (SEND or WRITE payload segment).
	Data PacketType = iota
	// Ack is a RoCE acknowledgement carrying a cumulative PSN.
	Ack
	// Nack is a RoCE negative acknowledgement carrying the receiver's
	// expected PSN (ePSN); it acknowledges all packets with PSN < ePSN.
	Nack
	// CNP is a DCQCN congestion notification packet.
	CNP
	// MRP is a Cepheus MFT Registration Protocol packet (UDP-based in the
	// paper; carried here with an opaque control payload).
	MRP
	// MRPConfirm is a receiver's registration confirmation back to the
	// controller.
	MRPConfirm
	// MRPReject signals a registration failure (e.g. switch MFT capacity
	// exhausted); it triggers the safeguard fallback.
	MRPReject
	// Pause is a PFC PAUSE frame for the single lossless priority.
	Pause
	// Resume is a PFC un-pause frame.
	Resume
	// Raw is an application-defined packet with no transport semantics.
	Raw
)

var packetTypeNames = [...]string{
	"DATA", "ACK", "NACK", "CNP", "MRP", "MRP-CONFIRM", "MRP-REJECT",
	"PAUSE", "RESUME", "RAW",
}

func (t PacketType) String() string {
	if int(t) < len(packetTypeNames) {
		return packetTypeNames[t]
	}
	return fmt.Sprintf("PacketType(%d)", uint8(t))
}

// WireOverhead is the per-packet on-wire overhead in bytes beyond the
// payload: Ethernet (14) + FCS (4) + preamble/IFG (20) + IPv4 (20) + UDP (8)
// + IB BTH (12) + ICRC (4) = 82.
const WireOverhead = 82

// CtrlPacketBytes is the wire size of a payload-less control packet
// (ACK/NACK/CNP/PAUSE); ACKs carry a 4-byte AETH.
const CtrlPacketBytes = WireOverhead + 4

// Packet is the unit the simulator moves. One struct covers all types; the
// transport and the accelerator read only the fields their type defines.
// Copies are cheap and explicit (see Clone) because switch replication must
// not alias rewritten headers.
type Packet struct {
	Type PacketType

	// Addressing. For Cepheus data packets the sender posts Dst = McstID,
	// DstQP = 0x1 (the virtual remote connection); leaf switches rewrite
	// these per receiver and set Src = McstID so feedback routes back into
	// the MFT.
	Src   Addr
	Dst   Addr
	SrcQP uint32
	DstQP uint32

	// PSN is the packet sequence number for Data, the cumulative
	// acknowledged PSN for Ack, and the expected PSN (ePSN) for Nack.
	// PSNs are virtual (uint64, never wrapping); the simulator models no
	// 24-bit wire encoding (DESIGN.md §1).
	PSN uint64

	// Payload is the application bytes carried; Size() adds wire overhead.
	Payload int

	// MsgID identifies the message a Data packet belongs to; Last marks the
	// final packet of the message.
	MsgID uint64
	Last  bool

	// Retrans marks go-back-N retransmissions (used by the accelerator's
	// retransmit filter and by statistics).
	Retrans bool

	// Reduce marks a many-to-one contribution flowing *up* the multicast
	// distribution tree toward the reduction root (the Cepheus reduction
	// extension; see internal/core). Value is the partial aggregate the
	// packet carries; switches combine values per PSN.
	Reduce bool
	Value  float64

	// ECN is the CE codepoint, set by congested egress queues.
	ECN bool

	// Stamp is the requester-side emission time of a Data packet (set by the
	// transport, zero otherwise). The responder reads it to observe
	// end-to-end delivery latency; Clone inherits it, so a replicated
	// multicast copy still carries the original emission time.
	Stamp sim.Time

	// WriteVA/WriteRKey model the RETH of an RDMA WRITE first packet. The
	// accelerator rewrites them per receiver from the MFT's MR info.
	WriteVA   uint64
	WriteRKey uint32

	// Meta carries control payloads (e.g. the MRP node list) opaquely.
	Meta any

	// acct tracks PFC ingress-buffer accounting inside a switch; it is
	// internal to simnet.
	acct *ingressAccount

	// txEpoch/peerEpoch snapshot both link endpoints' fail-stop epochs when
	// the frame starts serializing; delivery discards the frame if either end
	// flapped while it was in flight. Internal to Port.
	txEpoch   uint64
	peerEpoch uint64

	// enqAt is when the packet entered its current egress queue. Burst train
	// formation (Port.trySend) reads it to decide whether a queued frame
	// predates the formation instant: frames enqueued at the very nanosecond
	// a train forms are deferred to the next train, so the wire schedule is
	// independent of how an execution mode orders same-instant events.
	// Internal to Port.
	enqAt sim.Time

	// impairDrop, when nonzero, is the obs.Reason a gray-failure impairment
	// assigned this frame at dequeue: no delivery is scheduled and the frame
	// is recorded and released when serialization completes. Internal to
	// Port (impair.go).
	impairDrop obs.Reason

	// inPool marks a packet currently parked in the pool, so a second
	// Release of the same packet fails loudly instead of corrupting whoever
	// drew it from the pool in between. Internal to pool.go.
	inPool bool
}

// Size returns the on-wire size in bytes.
func (p *Packet) Size() int {
	if p.Payload == 0 {
		return CtrlPacketBytes
	}
	return p.Payload + WireOverhead
}

// Clone returns a pooled copy that can be rewritten and forwarded
// independently. Accounting and in-flight state are not inherited; Meta is
// shared (control payloads are immutable by convention). The clone is owned
// by the caller and must eventually reach a releasing sink.
func (p *Packet) Clone() *Packet {
	q := NewPacket()
	*q = *p
	q.acct = nil
	q.txEpoch, q.peerEpoch = 0, 0
	q.impairDrop = obs.RNone
	return q
}

func (p *Packet) String() string {
	return fmt.Sprintf("%s %v:%d->%v:%d psn=%d len=%d", p.Type, p.Src, p.SrcQP, p.Dst, p.DstQP, p.PSN, p.Payload)
}
