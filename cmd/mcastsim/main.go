// mcastsim runs a single multicast scenario from flags: pick a scheme, a
// topology, a group size, a message size and an optional loss rate, and get
// the job completion time plus transport/accelerator counters.
//
// Examples:
//
//	mcastsim -scheme cepheus -hosts 4 -group 4 -size 64M
//	mcastsim -scheme chain -fattree 8 -group 64 -size 128M -loss 1e-5
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	cepheus "repro"
	"repro/internal/exp"
	"repro/internal/roce"
)

func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	}
	n, err := strconv.Atoi(s)
	return n * mult, err
}

func main() {
	scheme := flag.String("scheme", "cepheus", "cepheus | binomial-tree | chain | increasing-ring | n-unicast | rdmc | long")
	hosts := flag.Int("hosts", 4, "testbed host count (ignored with -fattree)")
	fattree := flag.Int("fattree", 0, "build a k-ary fat-tree instead of the testbed")
	group := flag.Int("group", 4, "multicast group size (sender + receivers)")
	sizeStr := flag.String("size", "1M", "message size (supports K/M/G suffix)")
	slices := flag.Int("slices", 4, "chain slices / rdmc blocks")
	loss := flag.Float64("loss", 0, "random data loss rate at switches")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	size, err := parseSize(*sizeStr)
	if err != nil || size <= 0 {
		log.Fatalf("bad -size %q", *sizeStr)
	}
	tr := roce.DefaultConfig()
	exp.ApplyCell(&tr.MTU, &tr.WindowPkts, size, tr.MTU, 4096)
	opts := cepheus.Options{Seed: *seed, Transport: &tr}

	var c *cepheus.Cluster
	if *fattree > 0 {
		c = cepheus.NewFatTree(*fattree, opts)
	} else {
		if *hosts < *group {
			*hosts = *group
		}
		c = cepheus.NewTestbed(*hosts, opts)
	}
	if *group > c.Hosts() {
		log.Fatalf("group %d exceeds %d hosts", *group, c.Hosts())
	}
	nodes := make([]int, *group)
	for i := range nodes {
		nodes[i] = i
	}
	b, err := c.Broadcaster(cepheus.Scheme(*scheme), nodes, *slices)
	if err != nil {
		log.Fatal(err)
	}
	c.SetLossRate(*loss)
	jct, err := c.RunBcastErr(b, 0, size)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheme=%s group=%d size=%s cell=%dB loss=%g\n",
		b.Name(), *group, exp.FormatBytes(size), tr.MTU, *loss)
	fmt.Printf("JCT        %v\n", jct)
	fmt.Printf("goodput    %.2f Gbps (aggregate to %d receivers: %.2f Gbps)\n",
		float64(size)*8/jct.Seconds()/1e9,
		*group-1, float64(size)*float64(*group-1)*8/jct.Seconds()/1e9)
	var retrans, timeouts uint64
	for _, r := range c.RNICs[:*group] {
		retrans += r.Stats.Retransmits
		timeouts += r.Stats.Timeouts
	}
	fmt.Printf("drops=%d retransmits=%d timeouts=%d sender-acks=%d\n",
		c.Metrics().DataDrops, retrans, timeouts, c.RNICs[0].Stats.AcksRecv)
}
