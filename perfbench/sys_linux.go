package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// fineSleep sleeps d with microsecond precision. The Go timer parks the
// goroutine until the next scheduler wake-up, which on an idle Linux
// process rounds sub-millisecond sleeps up to about a millisecond; an
// arrival schedule with tens of microseconds between requests would then
// measure the generator's lateness instead of the system. A nanosleep
// on a thread whose timer slack is 1 ns wakes within a few microseconds.
// The goroutine seldom moves to another thread between the two system
// calls; when it does, the sleep is only coarser, which the lag metric
// reports.
func fineSleep(d time.Duration) {
	//soclint:ignore errdiscard a refused slack change only coarsens the wake-up, which the lag metric reports
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
