package paperref

import "testing"

func TestTableIIWellFormed(t *testing.T) {
	if len(TableII) != 8 {
		t.Fatalf("Table II has %d rows", len(TableII))
	}
	for i, r := range TableII {
		if i == 0 {
			continue
		}
		prev := TableII[i-1]
		if r.FreqMHz <= prev.FreqMHz {
			t.Errorf("frequencies not increasing at row %d", i)
		}
		if r.VoltageV <= prev.VoltageV {
			t.Errorf("voltages not increasing at row %d", i)
		}
		if r.Alpha <= prev.Alpha || r.Beta <= prev.Beta {
			t.Errorf("coefficients not increasing at row %d", i)
		}
	}
	if r, ok := TableIIByFreq(2000); !ok || r.Alpha != 2.93 || r.Beta != 12.11 {
		t.Errorf("TableIIByFreq(2000) = %+v, %v", r, ok)
	}
	if _, ok := TableIIByFreq(700); ok {
		t.Error("TableIIByFreq(700) found a row")
	}
}

func TestTablesCoverSameFrequencies(t *testing.T) {
	for _, r := range TableII {
		if _, ok := TableIII[r.FreqMHz]; !ok {
			t.Errorf("Table III missing %d MHz", r.FreqMHz)
		}
	}
	if len(TableIII) != len(TableII) {
		t.Errorf("Table III has %d rows", len(TableIII))
	}
}

func TestTableIVConsistentWithTableIII(t *testing.T) {
	// The published static frequencies must be exactly what the
	// worst-case rule derives from the published Table III powers:
	// the highest frequency whose worst-case power fits the limit.
	for limit, wantMHz := range TableIV {
		best := 0
		for f, w := range TableIII {
			if w <= limit && f > best {
				best = f
			}
		}
		if best != wantMHz {
			t.Errorf("limit %.1f W: rule derives %d MHz, table says %d", limit, best, wantMHz)
		}
	}
}

func TestHeadlineClaimsPlausible(t *testing.T) {
	// Sanity relations between the published numbers.
	if !(ArtLossAt80 > 1-0.80 && McfLossAt80 > 1-0.80) {
		t.Error("published violations do not exceed the 80% floor allowance")
	}
	if McfLossAt80Alt >= 1-0.80 {
		t.Error("mcf's repaired loss still violates the floor")
	}
	if ArtLossAt80Alt >= ArtLossAt80 {
		t.Error("repaired art loss not an improvement")
	}
	if PSLossAt60Floor > 1-0.60 {
		t.Error("published loss at the 60 percent floor violates its own allowance")
	}
	if PMFractionOfPossibleSpeedup <= 0 || PMFractionOfPossibleSpeedup > 1 {
		t.Error("headline fraction out of range")
	}
}
