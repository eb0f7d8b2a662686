package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// schedAttr is the kernel's struct sched_attr (SCHED_ATTR_SIZE_VER1).
type schedAttr struct {
	size     uint32
	policy   uint32
	flags    uint64
	nice     int32
	priority uint32
	runtime  uint64
	deadline uint64
	period   uint64
	utilMin  uint32
	utilMax  uint32
}

// sysSchedSetattr is sched_setattr's number on the architectures the
// benchmark runs on.
var sysSchedSetattr = map[string]uintptr{"amd64": 314, "arm64": 274}[runtime.GOARCH]

// setThreadSlice asks the scheduler for a time slice of d for the calling
// thread, keeping its policy and nice value; 0 restores the default slice.
// It reports whether the kernel accepted: custom slices need Linux 6.12's
// EEVDF scheduler.
func setThreadSlice(d time.Duration) bool {
	if sysSchedSetattr == 0 {
		return false
	}
	prio, err := syscall.Getpriority(syscall.PRIO_PROCESS, 0)
	if err != nil {
		return false
	}
	a := schedAttr{nice: int32(20 - prio), runtime: uint64(d)} // the raw syscall returns 20 - nice
	a.size = uint32(unsafe.Sizeof(a))
	_, _, errno := syscall.Syscall(sysSchedSetattr, 0, uintptr(unsafe.Pointer(&a)), 0)
	return errno == 0
}

// onPromptThread runs f on an OS thread of its own that asks for a 100µs
// slice. The load generators sleep between sends; when one wakes while the
// system under test keeps both CPUs busy, an ordinary thread waits out the
// running task's slice, 1.5ms or more, and that wait would read as generator
// lag. A short-slice thread preempts at once. Where the kernel has no custom
// slices f runs on an ordinary thread. The slice is restored before the
// thread goes back to the runtime's pool.
func onPromptThread(f func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if setThreadSlice(100 * time.Microsecond) {
		defer setThreadSlice(0)
	}
	f()
}
