package conc

// Apportion splits total workers over len(weights) entries: one worker
// each, the rest in proportion to weight by largest remainder, the
// earlier entry winning a tie. Allocating the floor first, rather than
// flooring each proportional share at 1, keeps the sum at exactly
// max(total, len(weights)). Weights must be positive. The result is
// written into dst, which grows only when its capacity is short.
func Apportion(dst []int, weights []float64, total int) []int {
	n := len(weights)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	extra := total - n
	if extra < 0 {
		extra = 0
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	assigned := 0
	for i, w := range weights {
		k := int(float64(extra) * w / sum)
		dst[i] = 1 + k
		assigned += k
	}
	// Leftovers go one each to the largest fractional parts. An entry
	// already topped up no longer reads 1 + its floored share, which
	// takes it out of the running.
	for ; assigned < extra; assigned++ {
		best, bestFrac := 0, -1.0
		for i, w := range weights {
			share := float64(extra) * w / sum
			k := int(share)
			if dst[i] != 1+k {
				continue
			}
			if f := share - float64(k); f > bestFrac {
				best, bestFrac = i, f
			}
		}
		dst[best]++
	}
	return dst
}
