package cepheus

import (
	"fmt"
	"strings"

	"repro/internal/simnet"
)

// Metrics aggregates the cluster-wide health and fault counters: what the
// fabric dropped and why, and what the accelerators did to their volatile
// state. RecoveryStats (per ResilientGroup) covers the scheme-switching
// side; Metrics covers the fabric side.
type Metrics struct {
	// DataDrops counts loss-injected data discards across switches.
	DataDrops uint64
	// CtrlDrops counts control packets (MRP/ACK/NACK/CNP) discarded by
	// ControlLossRate across switches.
	CtrlDrops uint64
	// CrashDrops counts packets that died at a crashed switch.
	CrashDrops uint64
	// NoRouteDrops counts packets dropped for lack of a FIB entry (routes
	// repaired around a dead destination).
	NoRouteDrops uint64
	// FaultDrops counts frames lost to dead links, summed over every port
	// (switch ports and host NICs).
	FaultDrops uint64

	// ImpairDrops counts frames lost to gray-failure wire impairments
	// (iid and Gilbert-Elliott burst loss), summed over every port.
	ImpairDrops uint64
	// CorruptDrops counts frames lost to modeled CRC corruption.
	CorruptDrops uint64
	// CtrlStormDrops counts control packets lost to targeted control-plane
	// loss storms.
	CtrlStormDrops uint64

	// MFTWipes counts multicast groups lost to switch crashes (volatile
	// MFTs), summed over accelerators.
	MFTWipes uint64
	// EpochRebuilds counts MFTs replaced wholesale by a newer-epoch
	// registration.
	EpochRebuilds uint64
	// StaleMRPDropped counts older-epoch MRP replays discarded by switches.
	StaleMRPDropped uint64
	// UnknownGroupDrops counts multicast data packets dropped by a switch
	// with no MFT for the group (e.g. after a crash wiped it).
	UnknownGroupDrops uint64
	// UnknownGroupNacks counts the rejections switches sent toward sources
	// of unknown-group data — the signal that invalidates a stale group.
	UnknownGroupNacks uint64
}

// Metrics sums the fault and drop counters over every device. Each killed
// frame is counted once, by the device that killed it (Port.drop or
// Switch.Drop); the MFT lifecycle counters come from the accelerators. Only
// meaningful while the simulation is quiescent (between Run calls).
func (c *Cluster) Metrics() Metrics {
	var m Metrics
	port := func(s *simnet.PortStats) {
		m.FaultDrops += s.FaultDrops
		m.ImpairDrops += s.ImpairDrops
		m.CorruptDrops += s.CorruptDrops
		m.CtrlStormDrops += s.StormDrops
	}
	for _, sw := range c.Net.Switches {
		m.DataDrops += sw.DataDrops
		m.CtrlDrops += sw.CtrlDrops
		m.CrashDrops += sw.CrashDrops
		m.NoRouteDrops += sw.NoRouteDrops
		m.UnknownGroupDrops += sw.UnknownGroupDrops
		for _, pt := range sw.Ports {
			port(&pt.Stats)
		}
	}
	for _, h := range c.Net.Hosts {
		port(&h.NIC.Stats)
	}
	for _, a := range c.Accels {
		m.MFTWipes += a.Stats.MFTWipes
		m.EpochRebuilds += a.Stats.EpochRebuilds
		m.StaleMRPDropped += a.Stats.StaleMRPDropped
		m.UnknownGroupNacks += a.Stats.UnknownGroupNacks
	}
	return m
}

// metricField names one Metrics field: key in String(), col in the
// EnableSeries "fab/<col>" column.
type metricField struct {
	key, col string
	get      func(*Metrics) uint64
}

// metricFields is the one name table for Metrics: every field once, in
// String() order.
var metricFields = [...]metricField{
	{"dataDrops", "data-drops", func(m *Metrics) uint64 { return m.DataDrops }},
	{"ctrlDrops", "ctrl-drops", func(m *Metrics) uint64 { return m.CtrlDrops }},
	{"crashDrops", "crash-drops", func(m *Metrics) uint64 { return m.CrashDrops }},
	{"noRouteDrops", "no-route-drops", func(m *Metrics) uint64 { return m.NoRouteDrops }},
	{"faultDrops", "fault-drops", func(m *Metrics) uint64 { return m.FaultDrops }},
	{"impairDrops", "impair-drops", func(m *Metrics) uint64 { return m.ImpairDrops }},
	{"corruptDrops", "corrupt-drops", func(m *Metrics) uint64 { return m.CorruptDrops }},
	{"ctrlStormDrops", "ctrl-storm-drops", func(m *Metrics) uint64 { return m.CtrlStormDrops }},
	{"mftWipes", "mft-wipes", func(m *Metrics) uint64 { return m.MFTWipes }},
	{"epochRebuilds", "epoch-rebuilds", func(m *Metrics) uint64 { return m.EpochRebuilds }},
	{"staleMRPDropped", "stale-mrp", func(m *Metrics) uint64 { return m.StaleMRPDropped }},
	{"unknownGroupDrops", "unknown-group-drops", func(m *Metrics) uint64 { return m.UnknownGroupDrops }},
	{"unknownGroupNacks", "unknown-group-nacks", func(m *Metrics) uint64 { return m.UnknownGroupNacks }},
}

// seriesOrder is the fab/* column order, as indices into metricFields. The
// gray-failure columns were added after the others and stay last, so CSV
// headers are stable across versions.
var seriesOrder = [...]int{0, 1, 2, 3, 4, 8, 9, 10, 11, 12, 5, 6, 7}

// String renders the non-zero counters compactly.
func (m Metrics) String() string {
	var b strings.Builder
	for _, f := range metricFields {
		if v := f.get(&m); v > 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", f.key, v)
		}
	}
	if b.Len() == 0 {
		return "clean"
	}
	return b.String()
}

// SetControlLossRate injects random control-plane loss (MRP, confirmations,
// ACK/NACK/CNP — everything except PFC) on every switch, exercising the
// registration retransmission and feedback recovery paths.
func (c *Cluster) SetControlLossRate(rate float64) {
	for _, sw := range c.Net.Switches {
		sw.ControlLossRate = rate
	}
}
