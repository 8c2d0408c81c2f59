package arch

import "fmt"

// Assembler builds a text segment from instruction helpers, resolving
// labels in a second pass. Application models (internal/apps) use it to
// express their syscall wrapper shapes; tests use it to build inputs
// for ABOM.
type Assembler struct {
	base   uint64
	code   []byte
	labels map[string]uint64
	fixups []fixup
	errs   []error
}

type fixup struct {
	at    int // offset of the rel32/rel8 field within code
	size  int // 1 or 4
	label string
	end   int // offset of the end of the instruction (rel is from here)
}

// NewAssembler starts a program at the given base virtual address.
func NewAssembler(base uint64) *Assembler {
	return &Assembler{base: base, labels: make(map[string]uint64)}
}

// PC returns the virtual address of the next emitted byte.
func (a *Assembler) PC() uint64 { return a.base + uint64(len(a.code)) }

// Label binds name to the current PC.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("asm: duplicate label %q", name))
	}
	a.labels[name] = a.PC()
	return a
}

func (a *Assembler) emit(b []byte) *Assembler {
	a.code = append(a.code, b...)
	return a
}

// Nop emits nop.
func (a *Assembler) Nop() *Assembler { return a.emit(EncNop()) }

// Ret emits ret.
func (a *Assembler) Ret() *Assembler { return a.emit(EncRet()) }

// Hlt emits hlt (terminates the program).
func (a *Assembler) Hlt() *Assembler { return a.emit(EncHlt()) }

// Syscall emits the raw syscall instruction.
func (a *Assembler) Syscall() *Assembler { return a.emit(EncSyscall()) }

// Work emits a work instruction consuming c cycles.
func (a *Assembler) Work(c uint32) *Assembler { return a.emit(EncWork(c)) }

// MovR32 emits the 5-byte mov $imm32,%e__ form.
func (a *Assembler) MovR32(reg int, imm uint32) *Assembler { return a.emit(EncMovR32Imm(reg, imm)) }

// MovR64 emits the 7-byte REX.W mov $imm32,%r__ form.
func (a *Assembler) MovR64(reg int, imm uint32) *Assembler { return a.emit(EncMovR64Imm(reg, imm)) }

// MovRaxRsp8 emits mov disp8(%rsp),%rax.
func (a *Assembler) MovRaxRsp8(disp uint8) *Assembler { return a.emit(EncMovRaxRsp8(disp)) }

// MovRegReg emits mov %rsrc,%rdst.
func (a *Assembler) MovRegReg(dst, src int) *Assembler { return a.emit(EncMovRegReg(dst, src)) }

// CallAbs emits callq *abs32.
func (a *Assembler) CallAbs(addr uint32) *Assembler { return a.emit(EncCallAbs(addr)) }

// PushImm emits push imm32.
func (a *Assembler) PushImm(imm uint32) *Assembler { return a.emit(EncPushImm32(imm)) }

// PushRax emits push %rax.
func (a *Assembler) PushRax() *Assembler { return a.emit(EncPushRax()) }

// PopRax emits pop %rax.
func (a *Assembler) PopRax() *Assembler { return a.emit(EncPopRax()) }

// PushRdi emits push %rdi.
func (a *Assembler) PushRdi() *Assembler { return a.emit([]byte{0x57}) }

// PopRdi emits pop %rdi.
func (a *Assembler) PopRdi() *Assembler { return a.emit([]byte{0x5f}) }

// DecRcx emits dec %rcx.
func (a *Assembler) DecRcx() *Assembler { return a.emit(EncDecRcx()) }

// Call emits call rel32 to a label.
func (a *Assembler) Call(label string) *Assembler {
	a.emit(EncCallRel32(0))
	a.fixups = append(a.fixups, fixup{at: len(a.code) - 4, size: 4, label: label, end: len(a.code)})
	return a
}

// Jmp emits jmp rel32 to a label.
func (a *Assembler) Jmp(label string) *Assembler {
	a.emit(EncJmpRel32(0))
	a.fixups = append(a.fixups, fixup{at: len(a.code) - 4, size: 4, label: label, end: len(a.code)})
	return a
}

// Jnz emits jnz rel8 to a label (must be within ±127 bytes).
func (a *Assembler) Jnz(label string) *Assembler {
	a.emit(EncJnzRel8(0))
	a.fixups = append(a.fixups, fixup{at: len(a.code) - 1, size: 1, label: label, end: len(a.code)})
	return a
}

// Jnz32 emits jnz rel32 to a label (for loop bodies larger than rel8
// range).
func (a *Assembler) Jnz32(label string) *Assembler {
	a.emit(EncJnzRel32(0))
	a.fixups = append(a.fixups, fixup{at: len(a.code) - 4, size: 4, label: label, end: len(a.code)})
	return a
}

// SyscallN emits the canonical glibc-style wrapper body for syscall
// number n: "mov $n,%eax; syscall" — ABOM's 7-byte Case 1 when the mov
// is 5 bytes.
func (a *Assembler) SyscallN(n uint32) *Assembler {
	return a.MovR32(RAX, n).Syscall()
}

// SyscallN64 emits "mov $n,%rax; syscall" with the 7-byte REX.W mov —
// ABOM's 9-byte two-phase pattern.
func (a *Assembler) SyscallN64(n uint32) *Assembler {
	return a.MovR64(RAX, n).Syscall()
}

// Loop emits a counted loop: body runs count times. It uses RCX as the
// counter, like rep-style x86 idioms, and a rel32 back-edge so bodies
// of any size fit.
func (a *Assembler) Loop(count uint32, body func(*Assembler)) *Assembler {
	lbl := fmt.Sprintf(".loop%d", len(a.code))
	a.MovR64(RCX, count)
	a.Label(lbl)
	body(a)
	a.DecRcx()
	a.Jnz32(lbl)
	return a
}

// Assemble resolves labels and returns the finished text segment.
func (a *Assembler) Assemble() (*Text, error) {
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	for _, f := range a.fixups {
		target, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		rel := int64(target) - int64(a.base+uint64(f.end))
		switch f.size {
		case 1:
			if rel < -128 || rel > 127 {
				return nil, fmt.Errorf("asm: label %q out of rel8 range (%d)", f.label, rel)
			}
			a.code[f.at] = byte(int8(rel))
		case 4:
			if rel < -1<<31 || rel > 1<<31-1 {
				return nil, fmt.Errorf("asm: label %q out of rel32 range (%d)", f.label, rel)
			}
			a.code[f.at] = byte(rel)
			a.code[f.at+1] = byte(rel >> 8)
			a.code[f.at+2] = byte(rel >> 16)
			a.code[f.at+3] = byte(rel >> 24)
		}
	}
	return NewText(a.base, a.code), nil
}

// MustAssemble is Assemble for known-good static programs; it panics on
// error and is intended for package-level program construction in
// internal/apps and tests.
func (a *Assembler) MustAssemble() *Text {
	t, err := a.Assemble()
	if err != nil {
		panic(err)
	}
	return t
}
