package cepheus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/roce"
)

// TestHeapKeysPerDispatch pins the event queue's work on the replication hot
// path. The accelerator copies each packet to every member port at one
// instant, so replicated trains fire in lockstep and most events share a
// timestamp with one already pending; the queue then chains them behind a
// single heap key. Keys pushed per dispatch is exact for the workload (a
// queue with one key per event pushes about one per dispatch here), so a
// change that goes back to one heap key per event fails this test rather
// than showing up only as a slowdown lost in wall-clock noise.
func TestHeapKeysPerDispatch(t *testing.T) {
	const (
		k       = 8
		members = 65
		size    = 1 << 20
		bound   = 0.15
	)
	core.ResetMcstIDs()
	tr := roce.DefaultConfig()
	tr.DCQCN = true
	c := NewFatTree(k, Options{Seed: 1, Transport: &tr})
	// Member i sits in pod i mod k, spreading the group over every pod.
	perPod := k * k / 4
	nodes := make([]int, members)
	for i := range nodes {
		nodes[i] = (i%k)*perPod + i/k
	}
	b, err := c.Broadcaster(SchemeCepheus, nodes, members)
	if err != nil {
		t.Fatal(err)
	}
	disp0, push0 := c.Eng.Dispatches(), c.Eng.KeysPushed()
	if _, err := c.RunBcastErr(b, 0, size); err != nil {
		t.Fatal(err)
	}
	disp, pushed := c.Eng.Dispatches()-disp0, c.Eng.KeysPushed()-push0
	ratio := float64(pushed) / float64(disp)
	t.Logf("%d keys pushed over %d dispatches: %.4f per dispatch", pushed, disp, ratio)
	if ratio > bound {
		t.Fatalf("%.4f heap keys pushed per dispatch, want <= %.2f", ratio, bound)
	}
}
