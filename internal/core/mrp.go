package core

import (
	"repro/internal/simnet"
)

// MRP body layout (Fig 5):
//
//	metadata: McstID(4) seq(1) total(1) epoch(2) = 8 bytes
//	node record: IP(4) QPN(3) flags(1)           = 8 bytes
//	  flags bit0 set: record is followed by MR info VA(8) RKey(4)
//
// The controller address is the packet's IP source (the leader host), so
// it costs nothing on the wire; the record count is implied by the body
// length. A 1500B IP MTU leaves 1500-20-8 = 1472 bytes of UDP payload:
// 8 + 183*8 = 1472 — exactly the paper's 183-node chunking constant.
// seq/total are single bytes (255 chunks × 183 records covers ~46K members,
// far beyond the fabric sizes modeled), which frees two metadata bytes for
// the registration epoch without giving up a node record per packet.
// The simulator moves the typed payload and sizes every MRP packet from
// this layout.
const (
	mrpMetaBytes = 8
	mrpNodeBytes = 8
	mrpMRBytes   = 12
)

// MRPMaxNodes is the maximum number of node records one MRP packet carries.
const MRPMaxNodes = 183

// NodeInfo is one member's connection (and MR) state as carried by MRP.
type NodeInfo struct {
	IP    simnet.Addr
	QPN   uint32
	WVA   uint64 // MR virtual address for multicast WRITE (§III-B2)
	WRKey uint32 // MR remote key
}

// MRPPayload is the MRP packet body (Fig 5): metadata (seq/total for
// chunking past the MTU limit, the registration epoch) plus the node records
// routed through the receiving switch. CtrlIP addresses confirmations and
// rejections back to the controller on the leader host.
//
// Epoch is the group's registration generation. Every (re-)registration
// increments it; switches stamp their MFT with it, replace the MFT wholesale
// when a newer epoch registers, and discard stale-epoch MRP replays — so a
// retransmitted or reordered registration from a previous generation can
// never resurrect a dead distribution tree.
type MRPPayload struct {
	McstID simnet.Addr
	Seq    int
	Total  int
	Epoch  uint16
	CtrlIP simnet.Addr
	Nodes  []NodeInfo
}

// wireBytes is the MRP payload size on the wire, from the Fig 5 layout: a
// record carries MR info when it has a WRITE target.
func (m *MRPPayload) wireBytes() int {
	n := mrpMetaBytes + len(m.Nodes)*mrpNodeBytes
	for i := range m.Nodes {
		if m.Nodes[i].WVA != 0 || m.Nodes[i].WRKey != 0 {
			n += mrpMRBytes
		}
	}
	return n
}

// newMRPPacket builds a pooled MRP packet for a payload. MRP is UDP-based
// with dstIP = McstID so switches classify it like other group traffic.
func newMRPPacket(src simnet.Addr, pay *MRPPayload) *simnet.Packet {
	p := simnet.NewPacket()
	p.Type = simnet.MRP
	p.Src = src
	p.Dst = pay.McstID
	p.Payload = pay.wireBytes()
	p.Meta = pay
	return p
}

// chunkNodes splits a member list into MRP-sized chunks.
func chunkNodes(nodes []NodeInfo) [][]NodeInfo {
	if len(nodes) == 0 {
		return nil
	}
	var out [][]NodeInfo
	for len(nodes) > MRPMaxNodes {
		out = append(out, nodes[:MRPMaxNodes])
		nodes = nodes[MRPMaxNodes:]
	}
	return append(out, nodes)
}

// confirmPayload is the body of an MRPConfirm/MRPReject packet. Epoch echoes
// the registration generation being answered, so the controller can discard
// confirmations and rejections that belong to a superseded attempt.
type confirmPayload struct {
	McstID simnet.Addr
	Member simnet.Addr
	Epoch  uint16
	Reason string // set on rejection
}

// epochUnknown marks switch-originated rejections that carry no registration
// epoch — notably the NACK a restarted switch sends when multicast data
// arrives for a group its wiped MFT no longer knows. The controller treats
// such a rejection on a registered group as an invalidation rather than a
// registration failure.
const epochUnknown uint16 = 0xFFFF
