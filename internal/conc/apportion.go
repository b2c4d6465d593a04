package conc

// Apportion splits total workers over len(weights) entries bottleneck
// first: every entry starts at one worker, and each further worker goes
// to the entry with the smallest workers/weight, the earlier entry
// winning a tie. That maximises min_i(workers_i/weight_i), the rate of a
// pipeline whose stage i needs weight_i seconds per item (what the live
// controller rates a proposal by), and the sum is exactly
// max(total, len(weights)). TestApportionIsOptimal checks it against
// every split by brute force. Weights must be positive. The result is
// written into dst, which grows only when its capacity is short.
func Apportion(dst []int, weights []float64, total int) []int {
	n := len(weights)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 1
	}
	for k := n; k < total; k++ {
		best := 0
		for i, w := range weights {
			if float64(dst[i])/w < float64(dst[best])/weights[best] {
				best = i
			}
		}
		dst[best]++
	}
	return dst
}
