//go:build !linux

package serve

import "syscall"

// workerSysProcAttr has no parent-death signal to ask for off Linux;
// an idle worker still ends on stdin EOF when the service dies.
func workerSysProcAttr() *syscall.SysProcAttr { return nil }
