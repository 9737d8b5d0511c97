package bitset

// Batch intersection kernels: the run×array two-pointer fast paths that
// replace per-element binary searches in the container ops.

// intersectArrayRuns appends arr ∩ runs to dst with a single forward merge
// over both inputs — O(len(arr) + len(runs)) instead of the
// O(len(arr)·log len(runs)) per-element searchRuns probing.
func intersectArrayRuns(dst, arr []uint16, runs []interval) []uint16 {
	j := 0
	for i := 0; i < len(arr) && j < len(runs); {
		switch {
		case arr[i] < runs[j].start:
			i++
		case arr[i] > runs[j].last:
			j++
		default:
			// arr values inside the current run are consecutive in arr;
			// copy the whole covered stretch in one append.
			k := i + 1
			for k < len(arr) && arr[k] <= runs[j].last {
				k++
			}
			dst = append(dst, arr[i:k]...)
			i = k
			j++
		}
	}
	return dst
}

// andCardArrayRuns counts arr ∩ runs with the same forward merge.
func andCardArrayRuns(arr []uint16, runs []interval) int {
	n, j := 0, 0
	for i := 0; i < len(arr) && j < len(runs); {
		switch {
		case arr[i] < runs[j].start:
			i++
		case arr[i] > runs[j].last:
			j++
		default:
			k := i + 1
			for k < len(arr) && arr[k] <= runs[j].last {
				k++
			}
			n += k - i
			i = k
			j++
		}
	}
	return n
}
