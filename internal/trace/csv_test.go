package trace

import (
	"math"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := sampleRun()
	orig.Rows[2].Phase = 2
	orig.Rows[3].TempC = 66.5
	orig.Rows[3].Duty = 0.875
	var sb strings.Builder
	if err := orig.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(orig.Rows) {
		t.Fatalf("rows = %d, want %d", len(back.Rows), len(orig.Rows))
	}
	for i := range orig.Rows {
		a, b := orig.Rows[i], back.Rows[i]
		if a.T != b.T || a.Interval != b.Interval || a.FreqMHz != b.FreqMHz || orig.PhaseName(&a) != back.PhaseName(&b) {
			t.Errorf("row %d mismatch: %+v vs %+v", i, a, b)
		}
		if math.Abs(a.TruePowerW-b.TruePowerW) > 0.001 || math.Abs(a.TempC-b.TempC) > 0.1 {
			t.Errorf("row %d power/temp mismatch", i)
		}
		if math.Abs(a.Duty-b.Duty) > 0.001 {
			t.Errorf("row %d duty mismatch: %g vs %g", i, a.Duty, b.Duty)
		}
	}
	if back.Ticks != orig.Ticks {
		t.Errorf("ticks = %d, want %d", back.Ticks, orig.Ticks)
	}
	if math.Abs(back.Duration.Seconds()-orig.Duration.Seconds()) > 1e-9 {
		t.Errorf("duration = %v, want %v", back.Duration, orig.Duration)
	}
	if math.Abs(back.EnergyJ-orig.EnergyJ) > 0.01 {
		t.Errorf("energy = %g, want %g", back.EnergyJ, orig.EnergyJ)
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "a,b,c\n",
		"bad field":  "t_ms,interval_ms,freq_mhz,dpc,ipc,dcu,l2pc,mempc,true_w,meas_w,instructions,phase,temp_c,duty\nx,10,2000,1,1,0,0,0,10,10,1,ph,0,1\n",
		"short row":  "t_ms,interval_ms,freq_mhz,dpc,ipc,dcu,l2pc,mempc,true_w,meas_w,instructions,phase,temp_c,duty\n1,2,3\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(in)); err == nil {
				t.Errorf("accepted %q", in)
			}
		})
	}
}
