//go:build linux

package binfmt

import "syscall"

const mmapSupported = true

// mmapAnon maps size bytes of zeroed, writable private memory.
func mmapAnon(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}

// protectReadOnly makes a mapping mmapAnon returned read-only, so a stray
// write into a sealed container faults instead of changing it.
func protectReadOnly(data []byte) error { return syscall.Mprotect(data, syscall.PROT_READ) }

func munmap(data []byte) {
	if data != nil {
		_ = syscall.Munmap(data)
	}
}
