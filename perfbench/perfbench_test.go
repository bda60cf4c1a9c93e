package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cop/internal/copnet"
)

// TestMain runs the tests at the benchmark's GOMAXPROCS, so they see the
// tenant shard count the command does.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(procs)
	os.Exit(m.Run())
}

// smallConfig is a served run over a 4096-block footprint, long enough
// for the 1 000 frames a p99 needs even under the race detector.
func smallConfig(scheme string) runConfig {
	return runConfig{
		w: Workload{Name: "small", Profile: "gcc", Blocks: 4096,
			Mix: [4]int{90, 10, 0, 0}, Scheme: scheme},
		seed:     7,
		duration: 12 * time.Second,
		flipKey:  -1,
	}
}

// served runs cfg and reports it as the command does.
func served(t *testing.T, cfg runConfig) (*e2eResult, result, int) {
	t.Helper()
	er, err := runServed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := report(er.result(), er.problems, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "failed_frac=") {
		t.Fatalf("no failed_frac reported:\n%s", out.String())
	}
	return er, res, code
}

// TestOracleCatchesInjectedFlip proves the shadow model bites: one bit
// flipped in an unprotected tenant's DRAM image must fail the run, while
// the same run without the flip reports exactly zero failures.
func TestOracleCatchesInjectedFlip(t *testing.T) {
	er, res, code := served(t, smallConfig("unprotected"))
	if code != 0 || res.Failed != 0 || !res.Correct {
		t.Fatalf("clean run: exit %d, failed %d, correct %v", code, res.Failed, res.Correct)
	}
	if er.beyondP99 < minTail {
		t.Fatalf("%d frame samples with %d beyond p99, need %d", er.frames, er.beyondP99, minTail)
	}
	if er.frameP50us <= 0 || er.frameP95us < er.frameP50us || er.frameP99us < er.frameP95us {
		t.Fatalf("frame p50 %.1f us, p95 %.1f us, p99 %.1f us", er.frameP50us, er.frameP95us, er.frameP99us)
	}

	cfg := smallConfig("unprotected")
	cfg.flipKey = 1234
	er, res, code = served(t, cfg)
	if code == 0 || res.Correct {
		t.Fatalf("flipped run exited %d with correct=%v; the oracle missed the corruption", code, res.Correct)
	}
	if er.mismatches != 1 || res.Failed != 1 {
		t.Fatalf("flipped run: %d mismatches, %d failed; want the one flipped key", er.mismatches, res.Failed)
	}
}

// TestProtectedTenantCorrectsFlip is the control for the test above: the
// same flip under cop-er is corrected, so the run stays clean.
func TestProtectedTenantCorrectsFlip(t *testing.T) {
	cfg := smallConfig("cop-er")
	cfg.flipKey = 1234
	if _, res, code := served(t, cfg); code != 0 || res.Failed != 0 {
		t.Fatalf("cop-er run with one flip: exit %d, failed %d", code, res.Failed)
	}
}

func TestPercentileExact(t *testing.T) {
	samples := make([]int64, 10000)
	for i := range samples {
		samples[i] = int64(i + 1)
	}
	for _, c := range []struct {
		n          int
		q          float64
		want       int64
		wantBeyond int
	}{
		{1000, 0.50, 500, 500},
		{1000, 0.25, 250, 750},
		{1000, 0.99, 990, 10},
		{10000, 0.99, 9900, 100},
		{10000, 0.999, 9990, 10},
	} {
		got, beyond, err := percentile(samples[:c.n], c.q)
		if err != nil || got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%g of %d = %d (%d beyond, %v), want %d (%d beyond)",
				100*c.q, c.n, got, beyond, err, c.want, c.wantBeyond)
		}
	}
	// One sample fewer leaves only 9 beyond: the percentile is not supported.
	if _, beyond, err := percentile(samples[:999], 0.99); err == nil {
		t.Errorf("p99 of 999 samples accepted with %d beyond", beyond)
	}
	if _, beyond, err := percentile(samples[:9999], 0.999); err == nil {
		t.Errorf("p99.9 of 9999 samples accepted with %d beyond", beyond)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Error("median of no samples accepted")
	}
	// Unequal gaps: exact order statistics, not interpolated buckets.
	skewed := []int64{3, 5, 7, 1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009, 1010, 1011, 1012, 1013, 1014, 1015, 1016, 1017}
	if got, _, _ := percentile(skewed, 0.10); got != 7 {
		t.Errorf("p10 of skewed samples = %d, want 7", got)
	}
}

func streamOf(w Workload, seed uint64, worker, frames int) []op {
	s := newOpStream(w, seed, worker, 2)
	var all, buf []op
	for i := 0; i < frames; i++ {
		buf = s.frame(buf)
		all = append(all, buf...)
	}
	return all
}

func TestWorkloadDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b := streamOf(w, 5, 1, 50), streamOf(w, 5, 1, 50)
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed gave different op streams", w.Name)
		}
		if slices.Equal(a, streamOf(w, 6, 1, 50)) {
			t.Errorf("%s: seeds 5 and 6 gave the same op stream", w.Name)
		}
		for _, o := range a {
			if o.key%2 != 1 || int(o.key) >= w.Blocks {
				t.Fatalf("%s: worker 1 of 2 drew key %d", w.Name, o.key)
			}
		}

		// Expected content after the same ops is identical; another seed
		// writes other bytes.
		content := func(seed uint64) []byte {
			small := w
			small.Blocks = 2048
			m, err := newModel(small, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range streamOf(small, seed, 0, 20) {
				if o.kind != opGet {
					m.apply(o)
				}
			}
			return m.data
		}
		if !bytes.Equal(content(5), content(5)) {
			t.Errorf("%s: the same seed gave different expected content", w.Name)
		}
		if bytes.Equal(content(5), content(6)) {
			t.Errorf("%s: seeds 5 and 6 gave the same expected content", w.Name)
		}
	}
}

// TestWorkloadSizing pins each workload's footprint against the LLC a
// default tenant actually gets, so a change to the LLC default cannot turn
// a cold workload hot unnoticed.
func TestWorkloadSizing(t *testing.T) {
	for _, w := range workloads {
		b, err := copnet.TenantConfig{Scheme: w.Scheme}.Open()
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		for i := 0; i < b.NumShards(); i++ {
			lines += b.Shard(i).LLC().Sets() * b.Shard(i).LLC().Ways()
		}
		b.Close()
		switch {
		case strings.HasPrefix(w.Name, "hot"):
			if 4*w.Blocks > lines {
				t.Errorf("%s: %d blocks exceed a quarter of the %d-line LLC", w.Name, w.Blocks, lines)
			}
		case strings.HasPrefix(w.Name, "cold"):
			if w.Blocks < 8*lines {
				t.Errorf("%s: %d blocks are under 8x the %d-line LLC", w.Name, w.Blocks, lines)
			}
		default:
			t.Errorf("%s: neither hot nor cold", w.Name)
		}
	}
}

// TestLadder runs the traced ladder briefly on a hot and a cold workload:
// its consistency checks (memctrl rung vs served run, client vs server op
// counts) must hold, every per-layer metric must be reported, and the
// workloads must split the layers as intended.
func TestLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("preloads 32 MiB footprints")
	}
	share := map[string]float64{}
	for _, name := range []string{"hot-read", "cold-read"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := runConfig{w: w, seed: 7, duration: 2 * time.Second, flipKey: -1}
		var log bytes.Buffer
		lr, err := runLadder(cfg, t.TempDir(), &log)
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.problems) != 0 || lr.failed != 0 {
			t.Fatalf("%s: %d failed ops, checks: %v\n%s", name, lr.failed, lr.problems, log.String())
		}
		for _, d := range layerMetrics {
			if _, ok := lr.vals[d.name]; !ok {
				t.Errorf("%s: %s not reported", name, d.name)
			}
		}
		hit := lr.vals["cache.hit_frac"]
		if (name == "hot-read" && hit < 0.9) || (name == "cold-read" && hit > 0.25) {
			t.Errorf("%s: cache.hit_frac %.3f", name, hit)
		}
		e2e := lr.vals["copnet.cpu_ns_per_op"] + lr.vals["shard.cpu_ns_per_op"] +
			lr.vals["memctrl.cpu_ns_per_op"] + lr.vals["bench.harness_cpu_ns_per_op"]
		share[name] = lr.vals["memctrl.cpu_ns_per_op"] / e2e
	}
	if share["cold-read"] <= share["hot-read"] {
		t.Errorf("memctrl share of CPU per op: cold-read %.3f, hot-read %.3f", share["cold-read"], share["hot-read"])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the command in step: the same
// workloads and the same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command %q", i, w.Name, workloads[i].Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
