package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// calmSteal is the share of the machine's CPU time the hypervisor may take
// during a window before the window counts as disturbed.
const calmSteal = 0.01

// window is one measured stretch of a run (an iteration, a segment), with
// the CPU time the hypervisor stole from the machine's virtual CPUs while
// it lasted. Stolen time is time in which the program did not run at all.
type window struct {
	start       time.Time
	steal0      float64
	wall, steal float64 // seconds
}

func openWindow() window { return window{start: time.Now(), steal0: stealSeconds()} }

func (w window) close() window {
	w.wall = time.Since(w.start).Seconds()
	w.steal = stealSeconds() - w.steal0
	return w
}

// share is the stolen fraction of the nproc CPUs' time in the window.
func (w window) share(nproc int) float64 {
	if w.wall <= 0 {
		return 0
	}
	return w.steal / (w.wall * float64(nproc))
}

// calm picks the windows whose samples a run reports: those in which the
// hypervisor stole at most calmSteal of the CPU time, or, when fewer than
// half were that calm, the least disturbed half. Samples from the other
// windows measure the machine's neighbours, not the program. The choice
// and the steal are written to the run record.
func calm(rep *report, name string, ws []window, nproc int) []bool {
	keep := make([]bool, len(ws))
	kept := 0
	shares := make([]float64, len(ws))
	for i, w := range ws {
		shares[i] = w.share(nproc)
		if shares[i] <= calmSteal {
			keep[i] = true
			kept++
		}
	}
	if kept*2 < len(ws) {
		idx := make([]int, len(ws))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return shares[idx[a]] < shares[idx[b]] })
		for i := range keep {
			keep[i] = false
		}
		kept = (len(ws) + 1) / 2
		for _, i := range idx[:kept] {
			keep[i] = true
		}
	}
	rep.inputs[name+"_windows"] = len(ws)
	rep.inputs[name+"_windows_kept"] = kept
	rep.series[name+"_steal_share"] = shares
	return keep
}

// stealSeconds is the CPU time the hypervisor has taken from this
// machine's virtual CPUs since boot (the steal column of /proc/stat), 0
// where unknown.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
