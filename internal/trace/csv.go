package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// ReadCSV parses a trace previously written by WriteCSV, recovering
// the per-interval rows (run-level totals are recomputed from them;
// Ticks is the row count) and a phase-label table of the distinct
// phase names in first-seen order. It is the import path for external
// analysis of dumped traces.
func ReadCSV(r io.Reader) (*Run, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 14
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	if header[0] != "t_ms" || header[11] != "phase" {
		return nil, fmt.Errorf("trace: unrecognized CSV header %v", header)
	}
	run := &Run{}
	var names []string
	index := make(map[string]uint32)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		row, err := parseRow(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if name := rec[11]; name != "" {
			p, ok := index[name]
			if !ok {
				names = append(names, name)
				p = uint32(len(names))
				index[name] = p
			}
			row.Phase = p
		}
		run.Rows = append(run.Rows, row)
		run.Duration += row.Interval
		run.Instructions += row.Instructions
		run.EnergyJ += row.TruePowerW * row.Interval.Seconds()
		run.MeasuredEnergyJ += row.MeasuredPowerW * row.Interval.Seconds()
	}
	run.Ticks = len(run.Rows)
	run.Phases = &PhaseLabels{names: names}
	return run, nil
}

func parseRow(rec []string) (Row, error) {
	f := make([]float64, len(rec))
	for i, s := range rec {
		if i == 11 { // phase label
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Row{}, fmt.Errorf("field %d %q: %w", i, s, err)
		}
		f[i] = v
	}
	return Row{
		T:              time.Duration(f[0] * float64(time.Millisecond)),
		Interval:       time.Duration(f[1] * float64(time.Millisecond)),
		FreqMHz:        int(f[2]),
		DPC:            f[3],
		IPC:            f[4],
		DCU:            f[5],
		L2PC:           f[6],
		MemPC:          f[7],
		TruePowerW:     f[8],
		MeasuredPowerW: f[9],
		Instructions:   f[10],
		TempC:          f[12],
		Duty:           f[13],
	}, nil
}
