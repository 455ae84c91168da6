// Network monitoring: compress SNMP/RMON-style per-flow traffic summaries
// (the paper's second motivating workload, §1) for transfer to a
// bandwidth-constrained analysis site, then run a drill-down query on the
// restored data and compare against the exact answer.
//
//	go run ./examples/netmon
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"strconv"

	"repro"
)

func main() {
	tbl := generateFlows(60000)
	fmt.Printf("flow table: %d flows, %d attributes, raw %.1f MB\n\n",
		tbl.NumRows(), tbl.NumCols(), float64(tbl.RawSizeBytes())/1e6)

	// 2% tolerance on byte/packet counters, exact protocol/interface data.
	tol := spartan.UniformTolerances(tbl, 0.02, 0)
	var archive bytes.Buffer
	stats, err := spartan.Compress(context.Background(), &archive, tbl,
		spartan.Options{Tolerances: tol}, spartan.SegmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed to %.1f%% of raw (%d B)\n",
		100*stats.Ratio, stats.CompressedBytes)
	fmt.Printf("predicted columns: %v\n\n", stats.Predicted)

	restored, err := spartan.Decompress(&archive)
	if err != nil {
		log.Fatal(err)
	}
	if err := spartan.Verify(tbl, restored, tol); err != nil {
		log.Fatal(err)
	}

	// Drill-down: average bytes per flow for each protocol, computed on the
	// restored (approximate) table vs the original.
	fmt.Println("avg bytes per flow by protocol (true vs restored):")
	trueAvg := avgBytesByProto(tbl)
	gotAvg := avgBytesByProto(restored)
	for proto, want := range trueAvg {
		got := gotAvg[proto]
		fmt.Printf("  %-6s %12.0f  %12.0f  (%.3f%% off)\n",
			proto, want, got, 100*math.Abs(want-got)/want)
	}
}

func avgBytesByProto(t *spartan.Table) map[string]float64 {
	bytesCol := t.ColByName("bytes")
	protoCol := t.ColByName("protocol")
	sums := map[string]float64{}
	counts := map[string]int{}
	for r := 0; r < t.NumRows(); r++ {
		p := protoCol.Dict[protoCol.Codes[r]]
		sums[p] += bytesCol.Floats[r]
		counts[p]++
	}
	for p := range sums {
		sums[p] /= float64(counts[p])
	}
	return sums
}

// generateFlows synthesizes router flow summaries: packets and bytes are
// linked through per-protocol packet sizes, counters derive from duration
// and rate class, and interface/port fields correlate with the protocol.
func generateFlows(n int) *spartan.Table {
	schema := spartan.Schema{
		{Name: "duration_ms", Kind: spartan.Numeric},
		{Name: "packets", Kind: spartan.Numeric},
		{Name: "bytes", Kind: spartan.Numeric},
		{Name: "avg_pkt_size", Kind: spartan.Numeric},
		{Name: "protocol", Kind: spartan.Categorical},
		{Name: "src_port_class", Kind: spartan.Categorical},
		{Name: "ingress_if", Kind: spartan.Categorical},
		{Name: "egress_if", Kind: spartan.Categorical},
		{Name: "qos_class", Kind: spartan.Categorical},
	}
	b, err := spartan.NewBuilder(schema)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	protos := []string{"tcp", "udp", "icmp"}
	pktSize := map[string]float64{"tcp": 1400, "udp": 512, "icmp": 84}
	portClass := map[string][]string{
		"tcp":  {"web", "mail", "ssh", "other"},
		"udp":  {"dns", "media", "other"},
		"icmp": {"n/a"},
	}
	for i := 0; i < n; i++ {
		proto := protos[rng.Intn(len(protos))]
		durMS := math.Round(math.Abs(rng.NormFloat64())*30000 + 100)
		rate := 1 + rng.Intn(40) // packets per 100ms class
		pkts := math.Round(durMS / 100 * float64(rate))
		size := pktSize[proto]
		bytes := math.Round(pkts * size * (0.95 + 0.1*rng.Float64()))
		avgSize := math.Round(bytes / math.Max(pkts, 1))
		qos := "best_effort"
		if proto == "udp" && rng.Float64() < 0.5 {
			qos = "expedited"
		}
		ifIn := "eth" + strconv.Itoa(rng.Intn(4))
		ifOut := "eth" + strconv.Itoa((rng.Intn(4)+1)%4)
		classes := portClass[proto]
		if err := b.AppendRow(durMS, pkts, bytes, avgSize,
			proto, classes[rng.Intn(len(classes))], ifIn, ifOut, qos); err != nil {
			log.Fatal(err)
		}
	}
	t, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return t
}
