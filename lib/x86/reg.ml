type t =
  | RAX | RCX | RDX | RBX | RSP | RBP | RSI | RDI
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

let all =
  [ RAX; RCX; RDX; RBX; RSP; RBP; RSI; RDI; R8; R9; R10; R11; R12; R13; R14; R15 ]

let number = function
  | RAX -> 0 | RCX -> 1 | RDX -> 2 | RBX -> 3
  | RSP -> 4 | RBP -> 5 | RSI -> 6 | RDI -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11
  | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15

let of_number = function
  | 0 -> RAX | 1 -> RCX | 2 -> RDX | 3 -> RBX
  | 4 -> RSP | 5 -> RBP | 6 -> RSI | 7 -> RDI
  | 8 -> R8 | 9 -> R9 | 10 -> R10 | 11 -> R11
  | 12 -> R12 | 13 -> R13 | 14 -> R14 | 15 -> R15
  | n -> invalid_arg (Printf.sprintf "Reg.of_number: %d" n)

let name64 = function
  | RAX -> "%rax" | RCX -> "%rcx" | RDX -> "%rdx" | RBX -> "%rbx"
  | RSP -> "%rsp" | RBP -> "%rbp" | RSI -> "%rsi" | RDI -> "%rdi"
  | R8 -> "%r8" | R9 -> "%r9" | R10 -> "%r10" | R11 -> "%r11"
  | R12 -> "%r12" | R13 -> "%r13" | R14 -> "%r14" | R15 -> "%r15"

let name32 = function
  | RAX -> "%eax" | RCX -> "%ecx" | RDX -> "%edx" | RBX -> "%ebx"
  | RSP -> "%esp" | RBP -> "%ebp" | RSI -> "%esi" | RDI -> "%edi"
  | R8 -> "%r8d" | R9 -> "%r9d" | R10 -> "%r10d" | R11 -> "%r11d"
  | R12 -> "%r12d" | R13 -> "%r13d" | R14 -> "%r14d" | R15 -> "%r15d"

let equal a b = number a = number b
