package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mealy"
)

// corrupt returns a copy of m whose Evct outputs all name the wrong line.
func corrupt(m *mealy.Machine) *mealy.Machine {
	c := *m
	evct := m.NumInputs - 1
	c.Out = make([][]int, len(m.Out))
	for s := range m.Out {
		c.Out[s] = append([]int(nil), m.Out[s]...)
		c.Out[s][evct] = (c.Out[s][evct] + 1) % evct
	}
	return &c
}

func TestServeCountsWrongAnswers(t *testing.T) {
	ctx := context.Background()
	refs, err := serveRefs()
	if err != nil {
		t.Fatal(err)
	}
	good := &serveRound{}
	if err := runRound(ctx, good, refs, 7, nil); err != nil {
		t.Fatal(err)
	}
	if good.failed != 0 || good.requests != serveClients*roundRequests {
		t.Fatalf("clean round: %d of %d requests failed (%v)", good.failed, good.requests, good.firstErr)
	}
	bad := append([]*mealy.Machine(nil), refs...)
	bad[0] = corrupt(refs[0])
	l := &serveRound{}
	if err := runRound(ctx, l, bad, 7, nil); err != nil {
		t.Fatal(err)
	}
	if l.failed == 0 || l.failed == l.requests {
		t.Fatalf("corrupted reference: %d of %d requests failed, want some but not all", l.failed, l.requests)
	}
}

func TestLearnChecksFail(t *testing.T) {
	rows, err := learnSimRows()
	if err != nil {
		t.Fatal(err)
	}
	var lru simRow
	for _, r := range rows {
		if r.name == "LRU" {
			lru = r
		}
	}
	lru.truth = corrupt(lru.truth)
	if err := learnSimRow(context.Background(), lru, 1, nil, nil); err == nil {
		t.Error("LRU-4 verified against a corrupted ground truth")
	}
	rep := newReport()
	checkTable4Row(rep, experiments.Table4Row{States: hwStates, Policy: hwPolicy})
	checkTable4Row(rep, experiments.Table4Row{States: hwStates, Policy: "Unknown"})
	checkTable4Row(rep, experiments.Table4Row{States: 64, Policy: hwPolicy})
	checkTable4Row(rep, experiments.Table4Row{States: hwStates, Policy: hwPolicy, Err: "boom"})
	if rep.failed != 3 {
		t.Errorf("%d Table 4 rows failed the check, want 3", rep.failed)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		code []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.code) != len(c.json) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", c.kind, len(c.code), len(c.json))
			continue
		}
		for i, d := range c.code {
			if j := c.json[i]; d.name != j.Name || d.unit != j.Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", c.kind, i, d.name, d.unit, j.Name, j.Unit)
			}
		}
	}
}
