package trace

import (
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestCSVRoundTrip parses WriteCSV's output as CSV and checks each row
// and the run totals against the rows written.
func TestCSVRoundTrip(t *testing.T) {
	orig := sampleRun()
	orig.Rows[2].Phase = 2
	orig.Rows[3].TempC = 66.5
	orig.Rows[3].Duty = 0.875
	var sb strings.Builder
	if err := orig.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	cr := csv.NewReader(strings.NewReader(sb.String()))
	cr.FieldsPerRecord = 14
	recs, err := cr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if h := recs[0]; h[0] != "t_ms" || h[11] != "phase" {
		t.Fatalf("header = %v", h)
	}
	recs = recs[1:]
	if len(recs) != len(orig.Rows) || len(recs) != orig.Ticks {
		t.Fatalf("rows = %d, want %d (ticks %d)", len(recs), len(orig.Rows), orig.Ticks)
	}
	field := func(rec []string, i int) float64 {
		v, err := strconv.ParseFloat(rec[i], 64)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		return v
	}
	var durMs, energyJ float64
	for i, rec := range recs {
		a := &orig.Rows[i]
		if field(rec, 0) != a.T.Seconds()*1000 || field(rec, 1) != a.Interval.Seconds()*1000 ||
			int(field(rec, 2)) != a.FreqMHz || rec[11] != orig.PhaseName(a) {
			t.Errorf("row %d mismatch: %+v vs %v", i, *a, rec)
		}
		if math.Abs(a.TruePowerW-field(rec, 8)) > 0.001 || math.Abs(a.TempC-field(rec, 12)) > 0.1 {
			t.Errorf("row %d power/temp mismatch", i)
		}
		if math.Abs(a.Duty-field(rec, 13)) > 0.001 {
			t.Errorf("row %d duty mismatch: %g vs %s", i, a.Duty, rec[13])
		}
		durMs += field(rec, 1)
		energyJ += field(rec, 8) * field(rec, 1) / 1000
	}
	if math.Abs(durMs/1000-orig.Duration.Seconds()) > 1e-9 {
		t.Errorf("duration = %gs, want %v", durMs/1000, orig.Duration)
	}
	if math.Abs(energyJ-orig.EnergyJ) > 0.01 {
		t.Errorf("energy = %g, want %g", energyJ, orig.EnergyJ)
	}
}
