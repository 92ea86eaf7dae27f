package cepheus

import (
	"reflect"
	"testing"
)

// TestMetricsFieldMapping: the metricFields name table covers every Metrics
// field exactly once, String() names all of them in the table's order, and
// seriesOrder places every table entry in exactly one fab/* column.
func TestMetricsFieldMapping(t *testing.T) {
	typ := reflect.TypeOf(Metrics{})
	if got, want := len(metricFields), typ.NumField(); got != want {
		t.Fatalf("metricFields has %d entries, Metrics has %d fields", got, want)
	}
	for i := 0; i < typ.NumField(); i++ {
		var m Metrics
		reflect.ValueOf(&m).Elem().Field(i).SetUint(1)
		hits := 0
		for _, f := range metricFields {
			hits += int(f.get(&m))
		}
		if hits != 1 {
			t.Errorf("Metrics.%s is read by %d metricFields entries, want 1", typ.Field(i).Name, hits)
		}
	}
	keys, cols := map[string]bool{}, map[string]bool{}
	for _, f := range metricFields {
		if keys[f.key] || cols[f.col] {
			t.Errorf("duplicate name in metricFields: %q / %q", f.key, f.col)
		}
		keys[f.key], cols[f.col] = true, true
	}
	seen := make([]bool, len(metricFields))
	for _, i := range seriesOrder {
		if seen[i] {
			t.Errorf("seriesOrder lists metricFields[%d] twice", i)
		}
		seen[i] = true
	}
	if len(seriesOrder) != len(metricFields) {
		t.Errorf("seriesOrder has %d columns, metricFields %d entries", len(seriesOrder), len(metricFields))
	}

	// Every field set to its 1-based index: String() must name all of them,
	// in the order golden digests and faultsim output have always used.
	var m Metrics
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	want := "dataDrops=1 ctrlDrops=2 crashDrops=3 noRouteDrops=4 faultDrops=5 " +
		"impairDrops=6 corruptDrops=7 ctrlStormDrops=8 mftWipes=9 epochRebuilds=10 " +
		"staleMRPDropped=11 unknownGroupDrops=12 unknownGroupNacks=13"
	if got := m.String(); got != want {
		t.Fatalf("Metrics.String() =\n %s\nwant\n %s", got, want)
	}
	if got := (Metrics{}).String(); got != "clean" {
		t.Fatalf("zero Metrics.String() = %q, want clean", got)
	}
}
