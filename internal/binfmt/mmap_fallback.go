//go:build !linux

package binfmt

import (
	"errors"
	"os"
)

const mmapSupported = false

func mmapFile(*os.File, int) ([]byte, error) { return nil, nil }

func mmapAnon(int) ([]byte, error) { return nil, errors.ErrUnsupported }

func protectReadOnly([]byte) error { return nil }

func munmap([]byte) {}
