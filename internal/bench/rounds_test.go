package bench

import (
	"errors"
	"reflect"
	"testing"
)

func TestInterleave(t *testing.T) {
	errRun := errors.New("run failed")
	for _, tc := range []struct {
		name   string
		rounds int
		// samples[cfg][k] is what cfg's k-th run measures; each run
		// returns it and its negation, two measurements.
		samples [][]float64
		// failAt is the 1-based call that returns errRun, 0 for none.
		failAt  int
		order   []int
		medians [][]float64
	}{
		{
			name:    "odd rounds",
			rounds:  3,
			samples: [][]float64{{5, 1, 3}, {10, 30, 20}},
			order:   []int{0, 1, 1, 0, 0, 1},
			medians: [][]float64{{3, -3}, {20, -20}},
		},
		{
			name:    "even rounds",
			rounds:  4,
			samples: [][]float64{{4, 1, 3, 2}, {8, 8, 1, 9}},
			order:   []int{0, 1, 1, 0, 0, 1, 1, 0},
			medians: [][]float64{{2.5, -2.5}, {8, -8}},
		},
		{
			name:    "three configurations",
			rounds:  3,
			samples: [][]float64{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}},
			order:   []int{0, 1, 2, 2, 1, 0, 0, 1, 2},
			medians: [][]float64{{1, -1}, {2, -2}, {3, -3}},
		},
		{
			name:    "error stops the rounds",
			rounds:  3,
			samples: [][]float64{{1, 1, 1}, {2, 2, 2}},
			failAt:  3,
			order:   []int{0, 1, 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var order []int
			runs := make([]int, len(tc.samples))
			medians, err := interleave(tc.rounds, len(tc.samples), func(cfg int) ([]float64, error) {
				order = append(order, cfg)
				if len(order) == tc.failAt {
					return nil, errRun
				}
				v := tc.samples[cfg][runs[cfg]]
				runs[cfg]++
				return []float64{v, -v}, nil
			})
			if !reflect.DeepEqual(order, tc.order) {
				t.Errorf("run order %v, want %v", order, tc.order)
			}
			if tc.failAt > 0 {
				if !errors.Is(err, errRun) || medians != nil {
					t.Fatalf("got medians %v, err %v; want the run's error", medians, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(medians, tc.medians) {
				t.Errorf("medians %v, want %v", medians, tc.medians)
			}
		})
	}
}
