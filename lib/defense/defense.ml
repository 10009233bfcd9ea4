module Nx_bit = Nx_bit
module Cfi = Cfi

type t =
  | Unprotected
  | Unprotected_soft_tlb
  | Nx
  | Split of {
      policy : Split_memory.Policy.t;
      response : Split_memory.Response.t;
      nx : bool;
      mechanism : Split_memory.mechanism;
    }
  | Cfi_over of { underlying : t; shadow_stack : bool; coarse : bool }

let unprotected = Unprotected
let unprotected_soft_tlb = Unprotected_soft_tlb
let nx = Nx

let split_standalone =
  Split { policy = All_pages; response = Break; nx = false; mechanism = Tlb_desync }

let split_mixed_plus_nx =
  Split { policy = Mixed_only; response = Break; nx = true; mechanism = Tlb_desync }

let split_fraction pct =
  Split { policy = Fraction pct; response = Break; nx = true; mechanism = Tlb_desync }

let split_soft_tlb =
  Split { policy = All_pages; response = Break; nx = false; mechanism = Soft_tlb }

let split_dual_cr3 =
  Split { policy = All_pages; response = Break; nx = false; mechanism = Dual_cr3 }

let split_with ?(policy = Split_memory.Policy.All_pages) ?(response = Split_memory.Response.Break)
    ?(nx = false) ?(mechanism = Split_memory.Tlb_desync) () =
  Split { policy; response; nx; mechanism }

let cfi_over ?(shadow_stack = true) ?(coarse = true) underlying =
  Cfi_over { underlying; shadow_stack; coarse }

let cfi = cfi_over Unprotected
let split_plus_cfi = cfi_over split_standalone

let rec to_protection = function
  | Unprotected -> Kernel.Protection.none
  | Unprotected_soft_tlb -> { Kernel.Protection.none with soft_tlb = true }
  | Nx -> Nx_bit.protection ()
  | Split { policy; response; nx; mechanism } ->
    Split_memory.protection ~policy ~response ~nx ~mechanism ()
  | Cfi_over { underlying; shadow_stack; coarse } ->
    Cfi.protection ~shadow_stack ~coarse ~over:(to_protection underlying) ()

let name t =
  match t with
  | Unprotected_soft_tlb -> "unprotected(soft-tlb)"
  | Unprotected | Nx | Split _ | Cfi_over _ -> (to_protection t).Kernel.Protection.name
