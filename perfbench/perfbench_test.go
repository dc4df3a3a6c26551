package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"sfccover/internal/persist"
	"sfccover/internal/subscription"
)

// tinySizes shrinks every workload to a size that runs in well under a
// second.
func tinySizes() sizes {
	return sizes{
		pairs:          512,
		shapes:         64,
		uniform:        512,
		batch:          64,
		churnSubs:      256,
		churnEvents:    256,
		window:         16,
		setupReps:      2,
		churnSetupReps: 2,
		wireTraceOps:   400,
		localTraceOps:  256,
		churnTraceOps:  20,
		traceSample:    16,
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCommand pins BENCHMARK.json's workloads and
// metric lists to what the command runs and prints.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the command does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the command runs %v", names, workloadNames())
	}
	compare := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(file), len(defs))
			return
		}
		for i := range defs {
			if file[i].Name != defs[i].name || file[i].Unit != defs[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the command %s [%s]",
					kind, i, file[i].Name, file[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
}

// runTiny runs one workload at tiny size and returns its result and
// text report.
func runTiny(t *testing.T, workload string, seed int64, trace bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	cfg := &config{
		workload: workload, seed: seed, seconds: 200 * time.Millisecond, trace: trace,
		outDir: t.TempDir(), size: tinySizes(), out: &out,
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v\n%s", workload, seed, trace, err, out.String())
	}
	return res, out.String()
}

// TestSmokeEveryWorkload runs each workload untraced and traced at tiny
// size and checks that every metric BENCHMARK.json names is printed with
// its unit, and that the output checks pass.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res, report := runTiny(t, w.Name, 1, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, report)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present=%v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(report, "metric "+m.Name+" ") {
					t.Errorf("%s trace=%v: report has no line for %s", w.Name, trace, m.Name)
				}
			}
			if !strings.Contains(report, "host: nproc=") {
				t.Errorf("%s trace=%v: report does not record the host", w.Name, trace)
			}
		}
	}
}

// TestSecondSeedRunsClean runs every workload on another seed.
func TestSecondSeedRunsClean(t *testing.T) {
	for name := range workloads {
		res, report := runTiny(t, name, 2, false)
		if !res.Correct {
			t.Errorf("%s seed 2 failed its checks\n%s", name, report)
		}
	}
}

// wireFixture answers every query shape of a tiny query-wire population
// through the in-process engine.
func wireFixture(t *testing.T) (got []answer, queries, parents []*subscription.Subscription, owner map[uint64]int) {
	t.Helper()
	schema := newSchema()
	parents, children, err := coverPopulation(schema, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(schema, wireMaxCubes)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if owner, err = preload(eng, parents); err != nil {
		t.Fatal(err)
	}
	for i, q := range children {
		id, found, _, err := eng.FindCover(q)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, answer{query: int32(i), covered: found, id: id})
	}
	return got, children, parents, owner
}

func TestWireCheckRejectsFlippedAnswer(t *testing.T) {
	want, queries, parents, owner := wireFixture(t)
	got := append([]answer(nil), want...)
	if err := checkWireAnswers(got, want, queries, parents, owner); err != nil {
		t.Fatalf("clean answers rejected: %v", err)
	}
	flip := -1
	for i, a := range got {
		if a.covered {
			flip = i
			break
		}
	}
	if flip < 0 {
		t.Fatal("fixture has no covered answer to flip")
	}
	got[flip].covered = false
	if err := checkWireAnswers(got, want, queries, parents, owner); err == nil {
		t.Fatal("a flipped covered answer was accepted")
	}
}

func TestLocalCheckRejectsFalseCover(t *testing.T) {
	got, queries, parents, owner := wireFixture(t)
	if err := checkLocalAnswers(got, queries, parents, owner); err != nil {
		t.Fatalf("clean answers rejected: %v", err)
	}
	// Claim for the first query a cover by a parent that does not cover
	// it.
	for id, p := range owner {
		if !parents[p].Covers(queries[0]) {
			got[0] = answer{query: 0, covered: true, id: id}
			break
		}
	}
	if err := checkLocalAnswers(got, queries, parents, owner); err == nil {
		t.Fatal("a claimed cover that does not cover its query was accepted")
	}
	got[0] = answer{query: 0, covered: true, id: 1 << 62}
	if err := checkLocalAnswers(got, queries, parents, owner); err == nil {
		t.Fatal("a claimed cover outside the population was accepted")
	}
}

func TestDeliveryCheckRejectsDroppedDelivery(t *testing.T) {
	in, err := makeChurnInputs(1, tinySizes())
	if err != nil {
		t.Fatal(err)
	}
	want, err := floodReference(in, 64)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]subscription.Event, len(want))
	victim := -1
	for c := range want {
		got[c] = append([]subscription.Event(nil), want[c]...)
		if victim < 0 && len(got[c]) > 0 {
			victim = c
		}
	}
	if err := checkDeliveries(got, want); err != nil {
		t.Fatalf("identical deliveries rejected: %v", err)
	}
	if victim < 0 {
		t.Fatal("fixture delivered nothing")
	}
	got[victim] = got[victim][1:]
	if err := checkDeliveries(got, want); err == nil {
		t.Fatal("a dropped delivery was accepted")
	}
}

func TestRecoveryCheckRejectsMissingEntry(t *testing.T) {
	in, err := makeChurnInputs(1, tinySizes())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := setupChurn(in, t.TempDir(), tinySizes().window)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	live := storeState(sys.store)
	if err := sys.shutdown(); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(sys.dir, in.schema, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered := storeState(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := checkRecovered(live, recovered); err != nil {
		t.Fatalf("intact recovery rejected: %v", err)
	}
	var link string
	for l, es := range recovered {
		if len(es) > 0 {
			link = l
			break
		}
	}
	if link == "" {
		t.Fatal("fixture persisted nothing")
	}
	recovered[link] = recovered[link][1:]
	if err := checkRecovered(live, recovered); err == nil {
		t.Fatal("a missing recovered entry was accepted")
	}
}
