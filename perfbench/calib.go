package main

import "time"

// CPU time of a fixed piece of work drifts on a shared host, as neighbours
// come and go on the same cores and caches (the package comment gives the
// figures measured on the reference host). The benchmark therefore times
// a fixed calibration kernel, whose code does not depend on the code under
// test, before the set-ups, before the timed phase and after every pass,
// and scales the set-ups and each pass by refKernelCPU over the mean of the
// kernel times on either side of them.
// On a quiet reference host the factor is close to 1.

// refKernelCPU is the calibration kernel's CPU time on the quiet reference
// host.
const refKernelCPU = 18 * time.Millisecond

// kernelState is the calibration kernel's working set: the tag and age
// arrays of an 8-way, 4096-set cache, 288 KiB in all, so the kernel mixes
// integer work, branches and L2 traffic the way the simulator's cache
// model does.
type kernelState struct {
	tags [4096 * 8]uint64
	ages [4096 * 8]uint8
	sink uint64
}

// run drives 400k pseudo-random accesses (three quarters to a hot region)
// through the cache with LRU replacement.
func (k *kernelState) run() {
	x := uint64(88172645463325252)
	hits := 0
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := (x >> 8) & (1<<24 - 1)
		if x&3 != 0 {
			addr &= 1<<18 - 1
		}
		base := int(addr&4095) * 8
		tag := addr >> 12
		way := -1
		for w := 0; w < 8; w++ {
			if k.tags[base+w] == tag {
				way = w
				break
			}
		}
		if way >= 0 {
			hits++
		} else {
			way = 0
			for w := 1; w < 8; w++ {
				if k.ages[base+w] > k.ages[base+way] {
					way = w
				}
			}
			k.tags[base+way] = tag
		}
		for w := 0; w < 8; w++ {
			if k.ages[base+w] < 255 {
				k.ages[base+w]++
			}
		}
		k.ages[base+way] = 0
	}
	k.sink += uint64(hits)
}

// calibrate times the kernel (median of five), records it and returns it
// in seconds.
func (r *run) calibrate() float64 {
	var ts [5]float64
	for i := range ts {
		c := cpuNow()
		r.kernel.run()
		ts[i] = (cpuNow() - c).Seconds()
	}
	m := median(ts[:])
	r.kernelCPU = append(r.kernelCPU, m)
	return m
}

// speed is the run's scale factor, for intervals outside the passes:
// reference kernel time over the median measured kernel time.
func (r *run) speed() float64 {
	m := median(r.kernelCPU)
	if m <= 0 {
		return 1
	}
	return refKernelCPU.Seconds() / m
}
