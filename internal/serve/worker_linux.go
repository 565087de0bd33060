//go:build linux

package serve

import "syscall"

// workerSysProcAttr asks the kernel to SIGKILL a worker when the
// service dies, so even a SIGKILLed bvsimd leaves no worker behind.
func workerSysProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
