package core

import (
	"testing"

	"repro/internal/simnet"
)

// The paper's chunking constant: 183 plain node records must fit a 1500B
// MTU alongside IPv4/UDP headers.
func TestMRPMaxNodesFitsMTU(t *testing.T) {
	nodes := make([]NodeInfo, MRPMaxNodes)
	for i := range nodes {
		nodes[i] = NodeInfo{IP: simnet.Addr(i + 1), QPN: uint32(i + 2)}
	}
	p := newMRPPacket(1, &MRPPayload{McstID: simnet.MulticastBase + 1, Total: 1, Nodes: nodes})
	defer p.Release()
	if p.Payload != 1472 {
		t.Fatalf("183-node MRP body = %dB, want 1472", p.Payload)
	}
	if ipPayload := p.Payload + 20 + 8; ipPayload != 1500 {
		t.Fatalf("183 nodes should exactly fill the 1500B MTU, got %dB of IP payload", ipPayload)
	}
}

// A record that carries MR info (a WRITE target) costs 8+12 = 20 bytes.
func TestMRPSizeMixedRecords(t *testing.T) {
	nodes := []NodeInfo{
		{IP: 1, QPN: 2},
		{IP: 3, QPN: 4, WVA: 0x1000, WRKey: 9},
		{IP: 5, QPN: 6, WRKey: 1},
		{IP: 7, QPN: 8, WVA: 1},
		{IP: 9, QPN: 10},
	}
	p := newMRPPacket(1, &MRPPayload{McstID: simnet.MulticastBase + 1, Total: 1, Nodes: nodes})
	defer p.Release()
	if want := 8 + 2*8 + 3*20; p.Payload != want {
		t.Fatalf("mixed MRP body = %dB, want %d", p.Payload, want)
	}
}

// An MRP with no node records is its 8-byte metadata alone.
func TestMRPEmptyNodes(t *testing.T) {
	p := newMRPPacket(1, &MRPPayload{McstID: simnet.MulticastBase + 1, Total: 1})
	defer p.Release()
	if p.Payload != 8 {
		t.Fatalf("empty MRP body = %dB, want 8", p.Payload)
	}
}
