// Package paperref is the single source of truth for the numbers the
// paper publishes: Table II's model coefficients, Table III's measured
// worst-case power, Table IV's static-frequency rule, the eq. 3
// constants, and the headline evaluation claims. Everything the
// reproduction compares against lives here, so the published values
// appear exactly once in the codebase.
package paperref

// TableII lists the published per-p-state power model: frequency
// (MHz), supply voltage (V), and the eq. 2 coefficients.
type TableIIRow struct {
	FreqMHz  int
	VoltageV float64
	Alpha    float64
	Beta     float64
}

// TableII is the paper's Table II.
var TableII = []TableIIRow{
	{600, 0.998, 0.34, 2.58},
	{800, 1.052, 0.54, 3.56},
	{1000, 1.100, 0.77, 4.49},
	{1200, 1.148, 1.06, 5.60},
	{1400, 1.196, 1.42, 6.95},
	{1600, 1.244, 1.82, 8.44},
	{1800, 1.292, 2.36, 10.18},
	{2000, 1.340, 2.93, 12.11},
}

// TableIIByFreq returns the Table II row for a frequency.
func TableIIByFreq(freqMHz int) (TableIIRow, bool) {
	for _, r := range TableII {
		if r.FreqMHz == freqMHz {
			return r, true
		}
	}
	return TableIIRow{}, false
}

// TableIII is the measured FMA-256KB (worst-case proxy) power per
// frequency, in watts.
var TableIII = map[int]float64{
	600: 3.86, 800: 5.21, 1000: 6.56, 1200: 8.16,
	1400: 10.16, 1600: 12.46, 1800: 15.29, 2000: 17.78,
}

// TableIV maps each evaluated power limit (W) to the static frequency
// (MHz) the worst-case rule selects.
var TableIV = map[float64]int{
	17.5: 1800, 16.5: 1800, 15.5: 1800, 14.5: 1600,
	13.5: 1600, 12.5: 1600, 11.5: 1400, 10.5: 1400,
}

// eq. 3 constants.
const (
	// DCUThreshold classifies a sample memory-bound when DCU stalls
	// per instruction reach it.
	DCUThreshold = 1.21
	// Exponent is the primary frequency-dependence local minimum.
	Exponent = 0.81
	// ExponentAlt is the second local minimum the authors switch to
	// after observing floor violations (§IV-B.2).
	ExponentAlt = 0.59
)

// Headline evaluation claims (§IV, §V).
const (
	// PMFractionOfPossibleSpeedup: PM reaches this fraction of the
	// maximum possible speedup for the full suite at the 17.5 W limit.
	PMFractionOfPossibleSpeedup = 0.86
	// GalgelOverFracAt135: galgel's worst case spends about this
	// fraction of run-time over the 13.5 W limit.
	GalgelOverFracAt135 = 0.10
	// PSLossAt60Floor: suite performance loss at the 60% floor.
	PSLossAt60Floor = 0.308
	// PSSavingsAt80Floor: suite energy savings at the 80% floor.
	PSSavingsAt80Floor = 0.192
	// ArtLossAt80 and McfLossAt80: the two floor violations with
	// exponent 0.81.
	ArtLossAt80 = 0.422
	McfLossAt80 = 0.277
	// McfLossAt80Alt and ArtLossAt80Alt are the repaired values with
	// exponent 0.59.
	McfLossAt80Alt = 0.179
	ArtLossAt80Alt = 0.263
)
