package grid

import (
	"math"
	"strings"
	"testing"
)

const samplePlatform = `{
  "clusters": [
    {"name": "alpha", "nodes": 4, "procsPerNode": 2, "gflops": 3.0, "latencyMs": 0.05, "mbps": 900},
    {"name": "beta",  "nodes": 2, "procsPerNode": 2, "gflops": 2.0, "latencyMs": 0.06, "mbps": 800}
  ],
  "links": [
    {"from": "alpha", "to": "beta", "latencyMs": 8.0, "mbps": 100}
  ]
}`

func TestFromJSON(t *testing.T) {
	g, err := FromJSON(strings.NewReader(samplePlatform))
	if err != nil {
		t.Fatal(err)
	}
	if g.Procs() != 12 {
		t.Fatalf("procs = %d want 12", g.Procs())
	}
	if g.Clusters[1].Name != "beta" || g.Clusters[1].Gflops != 2.0 {
		t.Fatalf("cluster 1 = %+v", g.Clusters[1])
	}
	if math.Abs(g.Inter[0][1].Latency-8e-3) > 1e-12 {
		t.Fatalf("inter latency %g", g.Inter[0][1].Latency)
	}
	if g.Inter[0][1] != g.Inter[1][0] {
		t.Fatal("link not symmetric")
	}
	if math.Abs(g.Inter[0][0].Bandwidth-900e6/8) > 1e-6 {
		t.Fatalf("intra bandwidth %g", g.Inter[0][0].Bandwidth)
	}
	// Kernel defaults applied.
	if g.KernelHalfN != 184 || g.KernelEff != 0.55 {
		t.Fatalf("kernel defaults: %g %g", g.KernelHalfN, g.KernelEff)
	}
}

func TestFromJSONMissingLinkDefaultsToWorst(t *testing.T) {
	in := `{
  "clusters": [
    {"name": "a", "nodes": 1, "procsPerNode": 1, "gflops": 1, "latencyMs": 0.05, "mbps": 900},
    {"name": "b", "nodes": 1, "procsPerNode": 1, "gflops": 1, "latencyMs": 0.05, "mbps": 900},
    {"name": "c", "nodes": 1, "procsPerNode": 1, "gflops": 1, "latencyMs": 0.05, "mbps": 900}
  ],
  "links": [{"from": "a", "to": "b", "latencyMs": 5, "mbps": 80}]
}`
	g, err := FromJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Inter[0][2] != g.Inter[0][1] {
		t.Fatal("missing link should default to the worst listed link")
	}
}

func TestFromJSONErrors(t *testing.T) {
	cases := map[string]string{
		"empty clusters": `{"clusters": []}`,
		"bad json":       `{`,
		"unknown field":  `{"clusters": [], "wat": 1}`,
		"dup name": `{"clusters": [
			{"name": "a", "nodes": 1, "procsPerNode": 1, "gflops": 1, "latencyMs": 1, "mbps": 1},
			{"name": "a", "nodes": 1, "procsPerNode": 1, "gflops": 1, "latencyMs": 1, "mbps": 1}]}`,
		"unknown link": `{"clusters": [
			{"name": "a", "nodes": 1, "procsPerNode": 1, "gflops": 1, "latencyMs": 1, "mbps": 1}],
			"links": [{"from": "a", "to": "zz", "latencyMs": 1, "mbps": 1}]}`,
		"self link": `{"clusters": [
			{"name": "a", "nodes": 1, "procsPerNode": 1, "gflops": 1, "latencyMs": 1, "mbps": 1}],
			"links": [{"from": "a", "to": "a", "latencyMs": 1, "mbps": 1}]}`,
		"no name": `{"clusters": [
			{"nodes": 1, "procsPerNode": 1, "gflops": 1, "latencyMs": 1, "mbps": 1}]}`,
		"two clusters no links": `{"clusters": [
			{"name": "a", "nodes": 1, "procsPerNode": 1, "gflops": 1, "latencyMs": 1, "mbps": 1},
			{"name": "b", "nodes": 1, "procsPerNode": 1, "gflops": 1, "latencyMs": 1, "mbps": 1}]}`,
		"invalid cluster": `{"clusters": [
			{"name": "a", "nodes": 0, "procsPerNode": 1, "gflops": 1, "latencyMs": 1, "mbps": 1}]}`,
	}
	for name, in := range cases {
		if _, err := FromJSON(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// grid5000Platform is Grid5000() in the FromJSON schema.
const grid5000Platform = `{
  "clusters": [
    {"name": "Orsay",    "nodes": 32, "procsPerNode": 2, "gflops": 3.67, "latencyMs": 0.07, "mbps": 890, "failureRate": 3e-8},
    {"name": "Toulouse", "nodes": 32, "procsPerNode": 2, "gflops": 3.67, "latencyMs": 0.03, "mbps": 890, "failureRate": 3e-8},
    {"name": "Bordeaux", "nodes": 32, "procsPerNode": 2, "gflops": 3.67, "latencyMs": 0.05, "mbps": 890, "failureRate": 3e-8},
    {"name": "Sophia",   "nodes": 32, "procsPerNode": 2, "gflops": 3.67, "latencyMs": 0.06, "mbps": 890, "failureRate": 3e-8}
  ],
  "links": [
    {"from": "Orsay",    "to": "Toulouse", "latencyMs": 7.97, "mbps": 78},
    {"from": "Orsay",    "to": "Bordeaux", "latencyMs": 6.98, "mbps": 90},
    {"from": "Orsay",    "to": "Sophia",   "latencyMs": 6.12, "mbps": 102},
    {"from": "Toulouse", "to": "Bordeaux", "latencyMs": 9.03, "mbps": 77},
    {"from": "Toulouse", "to": "Sophia",   "latencyMs": 8.18, "mbps": 90},
    {"from": "Bordeaux", "to": "Sophia",   "latencyMs": 7.18, "mbps": 83}
  ],
  "intraNode": {"latencyMs": 0.017, "mbps": 5000},
  "kernelHalfN": 184,
  "kernelEff": 0.55
}`

func TestJSONRoundTrip(t *testing.T) {
	g := Grid5000()
	back, err := FromJSON(strings.NewReader(grid5000Platform))
	if err != nil {
		t.Fatal(err)
	}
	if back.Procs() != g.Procs() || len(back.Clusters) != 4 {
		t.Fatalf("round trip shape: %d procs", back.Procs())
	}
	for i := range g.Clusters {
		for j := range g.Clusters {
			a, b := g.Inter[i][j], back.Inter[i][j]
			if math.Abs(a.Latency-b.Latency) > 1e-15 || math.Abs(a.Bandwidth-b.Bandwidth)/a.Bandwidth > 1e-12 {
				t.Fatalf("link %d-%d drifted: %+v vs %+v", i, j, a, b)
			}
		}
	}
	if back.KernelHalfN != g.KernelHalfN || back.KernelEff != g.KernelEff {
		t.Fatal("kernel parameters drifted")
	}
}
