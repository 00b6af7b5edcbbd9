//go:build !linux

package binfmt

import "errors"

const mmapSupported = false

func mmapAnon(int) ([]byte, error) { return nil, errors.ErrUnsupported }

func protectReadOnly([]byte) error { return nil }

func munmap([]byte) {}
