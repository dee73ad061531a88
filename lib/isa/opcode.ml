type t =
  | NOP
  | HALT
  | LDA
  | STA
  | LDQ
  | STQ
  | LDX
  | STX
  | ADA
  | SBA
  | MPA
  | DVA
  | ADQ
  | SBQ
  | ANA
  | ORA
  | XRA
  | CMPA
  | AOS
  | STZ
  | ALS
  | ARS
  | TRA
  | TZE
  | TNZ
  | TMI
  | TPL
  | TSX
  | EAP
  | SPR
  | EAA
  | CALL
  | RETN
  | MME
  | LDBR
  | SIOC
  | SIOT
  | RTRAP

type operand_class =
  | Reads
  | Writes
  | Reads_and_writes
  | Address_only
  | Transfer
  | Ring_call
  | Ring_return
  | No_operand

let operand_class = function
  | NOP | HALT | SIOC | RTRAP | MME -> No_operand
  | SIOT -> Address_only
  | LDA | LDQ | LDX | ADA | SBA | MPA | DVA | ADQ | SBQ | ANA | ORA | XRA
  | CMPA ->
      Reads
  | STA | STQ | STX | SPR | STZ -> Writes
  | AOS -> Reads_and_writes
  | TRA | TZE | TNZ | TMI | TPL | TSX -> Transfer
  | EAP | EAA | ALS | ARS -> Address_only
  | CALL -> Ring_call
  | RETN -> Ring_return
  | LDBR -> No_operand

let privileged = function
  | HALT | LDBR | SIOC | SIOT | RTRAP -> true
  | MME -> false
  | NOP | LDA | STA | LDQ | STQ | LDX | STX | ADA | SBA | MPA | DVA | ADQ
  | SBQ | ANA | ORA | XRA | CMPA | AOS | STZ | ALS | ARS | TRA | TZE | TNZ
  | TMI | TPL | TSX | EAP | SPR | EAA | CALL | RETN ->
      false

let uses_xr = function
  | LDX | STX | TSX | EAP | SPR -> true
  | NOP | HALT | LDA | STA | LDQ | STQ | ADA | SBA | MPA | DVA | ADQ | SBQ
  | ANA | ORA | XRA | CMPA | AOS | STZ | ALS | ARS | TRA | TZE | TNZ | TMI
  | TPL | EAA | CALL | RETN | MME | LDBR | SIOC | SIOT | RTRAP ->
      false

let table =
  [|
    NOP; HALT; LDA; STA; LDQ; STQ; LDX; STX; ADA; SBA; MPA; DVA; ADQ; SBQ;
    ANA; ORA; XRA; CMPA; AOS; TRA; TZE; TNZ; TMI; TPL; TSX; EAP; SPR; EAA;
    CALL; RETN; MME; LDBR; SIOC; RTRAP; STZ; ALS; ARS; SIOT;
  |]

let code op =
  let rec find i = if table.(i) == op then i else find (i + 1) in
  find 0

let of_code c = if c < 0 || c >= Array.length table then None else Some table.(c)

let mnemonic = function
  | NOP -> "NOP"
  | HALT -> "HALT"
  | LDA -> "LDA"
  | STA -> "STA"
  | LDQ -> "LDQ"
  | STQ -> "STQ"
  | LDX -> "LDX"
  | STX -> "STX"
  | ADA -> "ADA"
  | SBA -> "SBA"
  | MPA -> "MPA"
  | DVA -> "DVA"
  | ADQ -> "ADQ"
  | SBQ -> "SBQ"
  | ANA -> "ANA"
  | ORA -> "ORA"
  | XRA -> "XRA"
  | CMPA -> "CMPA"
  | AOS -> "AOS"
  | STZ -> "STZ"
  | ALS -> "ALS"
  | ARS -> "ARS"
  | TRA -> "TRA"
  | TZE -> "TZE"
  | TNZ -> "TNZ"
  | TMI -> "TMI"
  | TPL -> "TPL"
  | TSX -> "TSX"
  | EAP -> "EAP"
  | SPR -> "SPR"
  | EAA -> "EAA"
  | CALL -> "CALL"
  | RETN -> "RETN"
  | MME -> "MME"
  | LDBR -> "LDBR"
  | SIOC -> "SIOC"
  | SIOT -> "SIOT"
  | RTRAP -> "RTRAP"

let all = Array.to_list table

let by_mnemonic =
  let h = Hashtbl.create 64 in
  Array.iter (fun op -> Hashtbl.replace h (mnemonic op) op) table;
  h

let of_mnemonic s = Hashtbl.find_opt by_mnemonic (String.uppercase_ascii s)

let pp ppf op = Format.pp_print_string ppf (mnemonic op)
