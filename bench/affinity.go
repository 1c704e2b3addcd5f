package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// An open loop leaves both cores mostly idle, and where the kernel then
// puts the process's handful of threads is a coin that lands for minutes:
// stacked on one core they preempt each other cheaply, spread over two
// every wake-up pulls a core out of idle. On the sandbox host the same
// binary reads 5.2 or 6.8 µs of CPU per frame depending on what the
// machine did a minute earlier. So the open loop does what one does with a
// client and a server on one box: the generator's thread gets core 0 and
// every other thread, the whole serving stack, core 1. The saturating
// workloads keep both cores busy, need both, and are left alone.

// cpuMask is a sched_setaffinity mask: bit n is core n. One word covers
// the cores the benchmark is sized for.
type cpuMask uint64

func setAffinity(tid int, mask cpuMask) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	return nil
}

func getAffinity() (cpuMask, error) {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, errno
	}
	return mask, nil
}

// setAffinityAll moves every thread of the process onto mask; threads
// they start later inherit it.
func setAffinityAll(mask cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exited since the listing is not an error.
		if err := setAffinity(tid, mask); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("thread %d: %w", tid, err)
		}
	}
	return nil
}

// splitCores puts the calling goroutine's thread, the generator, alone on
// the first core the process may use and every other thread on the second.
// The caller has locked the goroutine to its thread. restore undoes it. A
// host with one core, or one that refuses the call, runs unpinned and says
// so: the numbers are then as steady as its scheduler.
func splitCores() (restore func(), err error) {
	all, err := getAffinity()
	if err != nil {
		return nil, err
	}
	first := all & -all
	second := (all &^ first) & -(all &^ first)
	if second == 0 {
		return nil, fmt.Errorf("one core (affinity mask %#x)", uint64(all))
	}
	restore = func() {
		if err := setAffinityAll(all); err != nil {
			fmt.Fprintf(os.Stderr, "bench: restoring thread affinity: %v\n", err)
		}
	}
	if err := setAffinityAll(second); err != nil {
		restore()
		return nil, err
	}
	if err := setAffinity(0, first); err != nil {
		restore()
		return nil, err
	}
	return restore, nil
}
