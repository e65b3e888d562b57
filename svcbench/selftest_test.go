package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors the fields of BENCHMARK.json this test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestDeclarationsMatch keeps the metric and workload lists in code and
// in BENCHMARK.json identical.
func TestDeclarationsMatch(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, c := range []struct {
		name       string
		code, decl []metricDef
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer, bf.PerLayer}} {
		if len(c.code) != len(c.decl) {
			t.Errorf("%s: code declares %d metrics, BENCHMARK.json %d", c.name, len(c.code), len(c.decl))
			continue
		}
		for i := range c.code {
			if c.code[i] != c.decl[i] {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", c.name, i, c.code[i], c.decl[i])
			}
		}
	}
	specs := workloads(fullSizes)
	if len(specs) != len(bf.Workloads) {
		t.Fatalf("code has %d workloads, BENCHMARK.json %d", len(specs), len(bf.Workloads))
	}
	for i, w := range bf.Workloads {
		if specs[i].Name != w.Name || specs[i].Why != w.Why {
			t.Errorf("workload %d: code (%q, %q), BENCHMARK.json (%q, %q)", i, specs[i].Name, specs[i].Why, w.Name, w.Why)
		}
	}
}

// TestToyRuns runs every workload untraced and traced at toy size and
// checks that each prints exactly its declared metrics, with their units,
// and passes its correctness checks.
func TestToyRuns(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			decl := bf.EndToEnd
			if traced {
				decl = bf.PerLayer
			}
			o := options{workload: w.Name, seed: 3, seconds: 1, trace: traced, toy: true, outDir: t.TempDir()}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			var out bytes.Buffer
			res, err := run(ctx, o, &out, os.Stderr)
			cancel()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var printed result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", w.Name, traced, err)
			}
			for _, m := range decl {
				got, ok := printed.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed with unit %q, declared %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(printed.Metrics) != len(decl) {
				for name := range printed.Metrics {
					if !declared(decl, name) {
						t.Errorf("%s traced=%v: printed metric %s is not declared", w.Name, traced, name)
					}
				}
			}
		}
	}
}

func declared(defs []metricDef, name string) bool {
	for _, m := range defs {
		if m.Name == name {
			return true
		}
	}
	return false
}
