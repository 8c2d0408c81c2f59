package xc

import (
	"xcontainers/internal/abom"
	"xcontainers/internal/arch"
	"xcontainers/internal/syscalls"
)

// The low-level binary surface: the synthetic x86-64 subset and the
// online binary patcher, re-exported for byte-level tooling
// (examples/abomdive, cmd/abomtool-style consumers) so nothing outside
// this module needs to import internal packages. Platform.Run and the
// workload builders remain the high-level route; this surface is for
// poking at texts and patches directly.

// Text is an executable text segment of the synthetic ISA.
type Text = arch.Text

// Assembler builds Text segments instruction by instruction.
type Assembler = arch.Assembler

// Instr is one decoded instruction of the synthetic ISA.
type Instr = arch.Instr

// ABOM is the Automatic Binary Optimization Module (§4.4): the online
// patcher that rewrites syscall instructions into vsyscall calls.
type ABOM = abom.ABOM

// SyscallNo is a Linux syscall number of the modeled ABI.
type SyscallNo = syscalls.No

// UserTextBase is where application text segments are linked.
const UserTextBase = arch.UserTextBase

// NewAssembler starts an assembler emitting at base.
func NewAssembler(base uint64) *Assembler { return arch.NewAssembler(base) }

// NewText wraps raw code bytes as a text segment based at base.
func NewText(base uint64, code []byte) *Text { return arch.NewText(base, code) }

// Decode decodes the instruction at the start of b.
func Decode(b []byte) Instr { return arch.Decode(b) }

// NewABOM creates an enabled binary patcher with fresh statistics.
func NewABOM() *ABOM { return abom.New() }

// MustSyscallNumber resolves a static syscall name ("getpid", "read",
// ...) to its ABI number, panicking on an unknown name.
func MustSyscallNumber(name string) SyscallNo {
	n, err := parseSyscall(name)
	if err != nil {
		panic(err)
	}
	return n
}
