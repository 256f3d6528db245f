package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and
// metric lists equal to what the benchmark reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code runs %v", names, workloadNames)
	}
	var layers []entry
	for _, s := range layerSpecs() {
		layers = append(layers, entry{s.name, s.unit})
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer %v\ncode reports %v", spec.PerLayer, layers)
	}
	want := []entry{{"setup_s", "s"}, {"job_s_p50", "s"}, {"job_s_tail", "s"}, {"ok_rate_jobs_per_s", "jobs/s"}, {"peak_rss_mb", "MB"}}
	if !reflect.DeepEqual(spec.EndToEnd, want) {
		t.Errorf("end_to_end %v, code reports %v", spec.EndToEnd, want)
	}
}
