package trace

import (
	"strings"
	"testing"
)

// FuzzReadCSV checks the importer never panics and that accepted
// traces have internally consistent totals.
func FuzzReadCSV(f *testing.F) {
	var sb strings.Builder
	if err := sampleRun().WriteCSV(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	f.Add("t_ms,interval_ms,freq_mhz,dpc,ipc,dcu,l2pc,mempc,true_w,meas_w,instructions,phase,temp_c,duty\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, in string) {
		run, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if run.Ticks != len(run.Rows) {
			t.Fatalf("Ticks = %d, want the %d rows read", run.Ticks, len(run.Rows))
		}
		var dur float64
		for _, r := range run.Rows {
			dur += r.Interval.Seconds()
		}
		if d := run.Duration.Seconds() - dur; d > 1e-6 || d < -1e-6 {
			t.Fatalf("inconsistent duration: %v vs %v", run.Duration.Seconds(), dur)
		}
	})
}
