package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON checks that the program reports exactly
// the metrics BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e metricSet
	(&endToEnd{}).set(&e2e)
	d := &layerData{untraced: &batch{}, tracedBatch: &batch{}}
	var layers metricSet
	d.setMetrics(&layers, newRecorder(), &bench{})

	for _, c := range []struct {
		what string
		want []decl
		got  metricSet
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		if len(c.want) != len(c.got.names) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", c.what, len(c.want), len(c.got.names))
		}
		for _, w := range c.want {
			g, ok := c.got.vals[w.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is declared but not reported", c.what, w.Name)
			case g.Unit != w.Unit:
				t.Errorf("%s: %s unit %q, declared %q", c.what, w.Name, g.Unit, w.Unit)
			}
		}
	}
}
