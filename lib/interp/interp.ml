(* The IR interpreter.

   Executes one function invocation over a {!Memory.t} and argument
   bindings.  Vector operations are computed lane-wise with the same
   scalar semantics as the scalar operations, f32 included, so a
   correct vectorization is observationally identical to the scalar
   original — the property the differential tests check.

   The [on_exec] hook fires for every executed instruction; the
   performance simulator sums per-instruction costs through it. *)

open Snslp_ir

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type env = {
  memory : Memory.t;
  args : Rvalue.t array; (* by argument position *)
  regs : (int, Rvalue.t) Hashtbl.t; (* instruction id -> value *)
  on_exec : Defs.instr -> unit;
  max_steps : int;
  mutable steps : int;
  mutable cur_pred : int;
      (* bid of the block whose terminator was last followed; phis in
         the current block select their incoming value by it.  -1 at
         entry (the entry block has no phis). *)
}

let value (env : env) (v : Defs.value) : Rvalue.t =
  match v with
  | Defs.Const { ty; lit } -> Rvalue.of_lit ty lit
  | Defs.Undef _ -> Rvalue.R_undef
  | Defs.Arg a -> env.args.(a.Defs.arg_pos)
  | Defs.Instr i -> (
      match Hashtbl.find_opt env.regs i.Defs.iid with
      | Some r -> r
      | None -> error "use of %%%s before definition" i.Defs.iname)

let scalar_binop (elem : Ty.scalar) (b : Defs.binop) (x : Rvalue.t) (y : Rvalue.t) :
    Rvalue.t =
  if Ty.scalar_is_int elem then
    let x = Rvalue.as_int x and y = Rvalue.as_int y in
    match b with
    | Defs.Add -> Rvalue.R_int (Int64.add x y)
    | Defs.Sub -> Rvalue.R_int (Int64.sub x y)
    | Defs.Mul -> Rvalue.R_int (Int64.mul x y)
    | Defs.Div -> error "integer division"
  else
    let x = Rvalue.as_float x and y = Rvalue.as_float y in
    let r =
      match b with
      | Defs.Add -> x +. y
      | Defs.Sub -> x -. y
      | Defs.Mul -> x *. y
      | Defs.Div -> x /. y
    in
    Rvalue.R_float (if elem = Ty.F32 then Rvalue.round_f32 r else r)

let cmp_bit (c : Defs.cmp) (d : int) : int64 =
  let b =
    match c with
    | Defs.Eq -> d = 0
    | Defs.Ne -> d <> 0
    | Defs.Lt -> d < 0
    | Defs.Le -> d <= 0
    | Defs.Gt -> d > 0
    | Defs.Ge -> d >= 0
  in
  if b then 1L else 0L

let cmp_result (c : Defs.cmp) (d : int) = Rvalue.R_int (cmp_bit c d)

let float_cmp_bit (c : Defs.cmp) (x : float) (y : float) : int64 =
  let b =
    match c with
    | Defs.Eq -> x = y
    | Defs.Ne -> x <> y
    | Defs.Lt -> x < y
    | Defs.Le -> x <= y
    | Defs.Gt -> x > y
    | Defs.Ge -> x >= y
  in
  if b then 1L else 0L

let float_cmp_result (c : Defs.cmp) (x : float) (y : float) =
  Rvalue.R_int (float_cmp_bit c x y)

let exec_instr (env : env) (i : Defs.instr) : unit =
  env.on_exec i;
  env.steps <- env.steps + 1;
  if env.steps > env.max_steps then error "step budget exceeded (runaway execution)";
  let elem = Ty.elem i.Defs.ty in
  let set r = Hashtbl.replace env.regs i.Defs.iid r in
  match i.Defs.op with
  | Defs.Binop b ->
      let x = value env i.Defs.ops.(0) and y = value env i.Defs.ops.(1) in
      if Ty.is_vector i.Defs.ty then
        let xv = Rvalue.as_vec x and yv = Rvalue.as_vec y in
        set (Rvalue.R_vec (Array.map2 (scalar_binop elem b) xv yv))
      else set (scalar_binop elem b x y)
  | Defs.Alt_binop kinds ->
      let xv = Rvalue.as_vec (value env i.Defs.ops.(0)) in
      let yv = Rvalue.as_vec (value env i.Defs.ops.(1)) in
      set (Rvalue.R_vec (Array.mapi (fun k x -> scalar_binop elem kinds.(k) x yv.(k)) xv))
  | Defs.Gep ->
      let base, off = Rvalue.as_ptr (value env i.Defs.ops.(0)) in
      let idx = Int64.to_int (Rvalue.as_int (value env i.Defs.ops.(1))) in
      set (Rvalue.R_ptr { base; offset = off + idx })
  | Defs.Load ->
      let base, off = Rvalue.as_ptr (value env i.Defs.ops.(0)) in
      if Ty.is_vector i.Defs.ty then
        let lanes = Ty.lanes i.Defs.ty in
        set
          (Rvalue.R_vec
             (Array.init lanes (fun k -> Memory.read env.memory ~elem ~base ~off:(off + k))))
      else set (Memory.read env.memory ~elem ~base ~off)
  | Defs.Store ->
      let v = value env i.Defs.ops.(0) in
      let base, off = Rvalue.as_ptr (value env i.Defs.ops.(1)) in
      let velem = Ty.elem (Value.ty i.Defs.ops.(0)) in
      (match v with
      | Rvalue.R_vec lanes ->
          Array.iteri
            (fun k lane -> Memory.write env.memory ~elem:velem ~base ~off:(off + k) lane)
            lanes
      | v -> Memory.write env.memory ~elem:velem ~base ~off v)
  | Defs.Insert ->
      let vec = value env i.Defs.ops.(0) in
      let s = value env i.Defs.ops.(1) in
      let lane =
        match Value.as_const_int i.Defs.ops.(2) with Some l -> l | None -> error "insert lane"
      in
      let lanes = Ty.lanes i.Defs.ty in
      let arr =
        match vec with
        | Rvalue.R_vec v -> Array.copy v
        | Rvalue.R_undef -> Array.make lanes Rvalue.R_undef
        | _ -> error "insert into non-vector"
      in
      arr.(lane) <- s;
      set (Rvalue.R_vec arr)
  | Defs.Extract ->
      let vec = Rvalue.as_vec (value env i.Defs.ops.(0)) in
      let lane =
        match Value.as_const_int i.Defs.ops.(1) with Some l -> l | None -> error "extract lane"
      in
      set vec.(lane)
  | Defs.Shuffle mask ->
      let v1 = value env i.Defs.ops.(0) in
      let v2 = value env i.Defs.ops.(1) in
      let n = Ty.lanes (Value.ty i.Defs.ops.(0)) in
      let lane_of k =
        let from_vec v j =
          match v with
          | Rvalue.R_vec a -> a.(j)
          | Rvalue.R_undef -> Rvalue.R_undef
          | _ -> error "shuffle of non-vector"
        in
        if k < n then from_vec v1 k else from_vec v2 (k - n)
      in
      set (Rvalue.R_vec (Array.map lane_of mask))
  | Defs.Icmp c ->
      let x = value env i.Defs.ops.(0) and y = value env i.Defs.ops.(1) in
      let one a b = cmp_result c (Int64.compare (Rvalue.as_int a) (Rvalue.as_int b)) in
      (match (x, y) with
      | Rvalue.R_vec xv, Rvalue.R_vec yv -> set (Rvalue.R_vec (Array.map2 one xv yv))
      | _ -> set (one x y))
  | Defs.Fcmp c ->
      let x = value env i.Defs.ops.(0) and y = value env i.Defs.ops.(1) in
      let one a b = float_cmp_result c (Rvalue.as_float a) (Rvalue.as_float b) in
      (match (x, y) with
      | Rvalue.R_vec xv, Rvalue.R_vec yv -> set (Rvalue.R_vec (Array.map2 one xv yv))
      | _ -> set (one x y))
  | Defs.Select -> (
      let c = value env i.Defs.ops.(0) in
      let t = value env i.Defs.ops.(1) and e = value env i.Defs.ops.(2) in
      match c with
      | Rvalue.R_vec cv ->
          let tv = Rvalue.as_vec t and ev = Rvalue.as_vec e in
          set
            (Rvalue.R_vec
               (Array.mapi
                  (fun k ck ->
                    if Int64.compare (Rvalue.as_int ck) 0L <> 0 then tv.(k) else ev.(k))
                  cv))
      | _ ->
          set (if Int64.compare (Rvalue.as_int c) 0L <> 0 then t else e))
  | Defs.Phi preds ->
      let npred = Array.length preds in
      let rec find k =
        if k >= npred then error "phi: no incoming edge for predecessor"
        else if preds.(k) = env.cur_pred then k
        else find (k + 1)
      in
      set (value env i.Defs.ops.(find 0))

(* [run_counted ?on_exec ?max_steps func ~args ~memory] executes one
   call on the tree-walking engine and returns the number of executed
   instructions.  [args] bind by position; array arguments must be
   [R_ptr]s into [memory]. *)
let run_counted ?(on_exec = fun _ -> ()) ?(max_steps = 10_000_000) (func : Defs.func)
    ~(args : Rvalue.t array) ~(memory : Memory.t) : int =
  if Array.length args <> Array.length (Func.args func) then
    error "@%s expects %d arguments, got %d" (Func.name func)
      (Array.length (Func.args func))
      (Array.length args);
  let env =
    {
      memory;
      args;
      regs = Hashtbl.create 64;
      on_exec;
      max_steps;
      steps = 0;
      cur_pred = -1;
    }
  in
  let rec exec_block (b : Defs.block) : unit =
    Block.iter (exec_instr env) b;
    env.cur_pred <- b.Defs.bid;
    match Block.terminator b with
    | Defs.Ret -> ()
    | Defs.Br t -> exec_block t
    | Defs.Cond_br (c, t1, t2) ->
        let cv = Rvalue.as_int (value env c) in
        exec_block (if Int64.compare cv 0L <> 0 then t1 else t2)
    | Defs.Unterminated -> error "fell off an unterminated block"
  in
  exec_block (Func.entry func);
  env.steps

let run ?on_exec ?max_steps (func : Defs.func) ~(args : Rvalue.t array)
    ~(memory : Memory.t) : unit =
  ignore (run_counted ?on_exec ?max_steps func ~args ~memory)

(* --- Compiled execution engine --------------------------------------------

   [compile] stages a function once into a replayable [plan]:

   - every non-store instruction gets a dense slot in a per-type
     register bank — [float array] for scalar floats, [int64 array]
     for scalar ints and comparison bits, a boxed [Rvalue.t array]
     only for vectors and pointers — replacing the tree-walker's
     [(iid, Rvalue.t) Hashtbl] and its per-value boxing;
   - each operand is resolved at compile time to an accessor closure
     (constants are pre-evaluated, arguments index the current call's
     argument array, instruction results read their bank slot
     directly);
   - each instruction becomes one [unit -> unit] closure specialized
     on opcode, element type and vector-ness, so execution performs no
     opcode dispatch and no hash lookups;
   - straight-line blocks flatten into closure arrays; terminators
     become pre-resolved block indices.

   [execute] then replays the plan.  The engine is observationally
   identical to the tree-walker — same f32 rounding, same trap
   messages and ordering, same step-budget semantics, same [on_exec]
   stream — which the differential tests in test/test_engines.ml
   assert over a 1000-seed sweep.  Two deliberate, verifier-irrelevant
   divergences are documented there and in docs/INTERP.md: scalar
   register banks unbox eagerly, so extracting an *undef* lane (or
   selecting an undef scalar on the taken branch) traps at the
   producing instruction instead of at the first use; and "use before
   definition" cannot occur because the verifier's dominance check
   rejects such IR before it reaches an engine.

   A plan owns one mutable register state: it is reusable across calls
   (that is the point) but not reentrant — do not [execute] the same
   plan from inside its own [on_exec] hook, and share plans across
   domains only with external synchronisation. *)

type exec_state = {
  f_regs : float array;
  i_regs : int64 array;
  v_regs : Rvalue.t array;
  mutable cur_args : Rvalue.t array;
  mutable bufs : Memory.buffer option array; (* by arg position, bound per call *)
  mutable cur_mem : Memory.t;
  mutable cur_pred : int; (* bid of the block last exited; -1 at entry *)
}

type cterm =
  | C_ret
  | C_br of int
  | C_cond_br of (unit -> int64) * int * int
  | C_unterminated

type cblock = {
  body : (unit -> unit) array;
  src : Defs.instr array; (* same order as [body], for on_exec *)
  cterm : cterm;
  src_bid : int; (* becomes [cur_pred] when the terminator is followed *)
}

type plan = { pfunc : Defs.func; st : exec_state; cblocks : cblock array }

let compile (func : Defs.func) : plan =
  let max_iid = Func.fold_instrs (fun m i -> max m i.Defs.iid) (-1) func in
  let nslots = max_iid + 1 in
  let fslot = Array.make nslots (-1) in
  let islot = Array.make nslots (-1) in
  let vslot = Array.make nslots (-1) in
  let nf = ref 0 and ni = ref 0 and nv = ref 0 in
  Func.iter_instrs
    (fun i ->
      match i.Defs.op with
      | Defs.Store -> () (* no result *)
      | _ -> (
          match i.Defs.ty with
          | Ty.Scalar (Ty.F32 | Ty.F64) ->
              fslot.(i.Defs.iid) <- !nf;
              incr nf
          | Ty.Scalar (Ty.I32 | Ty.I64) ->
              islot.(i.Defs.iid) <- !ni;
              incr ni
          | Ty.Vector _ | Ty.Ptr _ ->
              vslot.(i.Defs.iid) <- !nv;
              incr nv))
    func;
  let st =
    {
      f_regs = Array.make !nf 0.0;
      i_regs = Array.make !ni 0L;
      v_regs = Array.make !nv Rvalue.R_undef;
      cur_args = [||];
      bufs = [||];
      cur_mem = Memory.create ();
      cur_pred = -1;
    }
  in
  let const_rv (v : Defs.value) : Rvalue.t =
    match v with
    | Defs.Const { ty; lit } -> Rvalue.of_lit ty lit
    | Defs.Undef _ -> Rvalue.R_undef
    | Defs.Arg _ | Defs.Instr _ -> assert false
  in
  (* Boxed operand accessor: scalar bank results are re-boxed at the
     use — only the (rare) closures that genuinely need an [Rvalue.t]
     pay for it. *)
  let rop (v : Defs.value) : unit -> Rvalue.t =
    match v with
    | Defs.Const _ | Defs.Undef _ ->
        let c = const_rv v in
        fun () -> c
    | Defs.Arg a ->
        let p = a.Defs.arg_pos in
        fun () -> st.cur_args.(p)
    | Defs.Instr i ->
        let id = i.Defs.iid in
        if id >= 0 && id < nslots && vslot.(id) >= 0 then
          let s = vslot.(id) in
          fun () -> st.v_regs.(s)
        else if id >= 0 && id < nslots && fslot.(id) >= 0 then
          let s = fslot.(id) in
          fun () -> Rvalue.R_float st.f_regs.(s)
        else if id >= 0 && id < nslots && islot.(id) >= 0 then
          let s = islot.(id) in
          fun () -> Rvalue.R_int st.i_regs.(s)
        else
          (* A store result (or an id outside the function) used as an
             operand: the verifier rejects this, but keep the
             tree-walker's trap for hand-built IR. *)
          let name = i.Defs.iname in
          fun () -> error "use of %%%s before definition" name
  in
  let fop (v : Defs.value) : unit -> float =
    match v with
    | Defs.Instr i when i.Defs.iid >= 0 && i.Defs.iid < nslots && fslot.(i.Defs.iid) >= 0
      ->
        let s = fslot.(i.Defs.iid) in
        fun () -> st.f_regs.(s)
    | Defs.Const _ | Defs.Undef _ -> (
        match const_rv v with
        | Rvalue.R_float f -> fun () -> f
        | c -> fun () -> Rvalue.as_float c)
    | v ->
        let g = rop v in
        fun () -> Rvalue.as_float (g ())
  in
  let iop (v : Defs.value) : unit -> int64 =
    match v with
    | Defs.Instr i when i.Defs.iid >= 0 && i.Defs.iid < nslots && islot.(i.Defs.iid) >= 0
      ->
        let s = islot.(i.Defs.iid) in
        fun () -> st.i_regs.(s)
    | Defs.Const _ | Defs.Undef _ -> (
        match const_rv v with
        | Rvalue.R_int n -> fun () -> n
        | c -> fun () -> Rvalue.as_int c)
    | v ->
        let g = rop v in
        fun () -> Rvalue.as_int (g ())
  in
  (* Buffers are bound once per call into [st.bufs]; the fallback path
     keeps the tree-walker's "no buffer bound" trap for stray bases. *)
  let get_buf (base : int) : Memory.buffer =
    let bs = st.bufs in
    if base >= 0 && base < Array.length bs then
      match bs.(base) with
      | Some b -> b
      | None -> Memory.buffer st.cur_mem ~arg_pos:base
    else Memory.buffer st.cur_mem ~arg_pos:base
  in
  let compile_instr (i : Defs.instr) : unit -> unit =
    let elem = Ty.elem i.Defs.ty in
    let fdst () = fslot.(i.Defs.iid)
    and idst () = islot.(i.Defs.iid)
    and vdst () = vslot.(i.Defs.iid) in
    match i.Defs.op with
    | Defs.Binop b ->
        if Ty.is_vector i.Defs.ty then begin
          let d = vdst () in
          let x = rop i.Defs.ops.(0) and y = rop i.Defs.ops.(1) in
          let f = scalar_binop elem b in
          fun () ->
            let xv = Rvalue.as_vec (x ()) and yv = Rvalue.as_vec (y ()) in
            st.v_regs.(d) <- Rvalue.R_vec (Array.map2 f xv yv)
        end
        else if Ty.scalar_is_int elem then begin
          let d = idst () in
          let x = iop i.Defs.ops.(0) and y = iop i.Defs.ops.(1) in
          match b with
          | Defs.Add -> fun () -> st.i_regs.(d) <- Int64.add (x ()) (y ())
          | Defs.Sub -> fun () -> st.i_regs.(d) <- Int64.sub (x ()) (y ())
          | Defs.Mul -> fun () -> st.i_regs.(d) <- Int64.mul (x ()) (y ())
          | Defs.Div ->
              fun () ->
                ignore (x ());
                ignore (y ());
                error "integer division"
        end
        else begin
          let d = fdst () in
          let x = fop i.Defs.ops.(0) and y = fop i.Defs.ops.(1) in
          if elem = Ty.F32 then
            match b with
            | Defs.Add -> fun () -> st.f_regs.(d) <- Rvalue.round_f32 (x () +. y ())
            | Defs.Sub -> fun () -> st.f_regs.(d) <- Rvalue.round_f32 (x () -. y ())
            | Defs.Mul -> fun () -> st.f_regs.(d) <- Rvalue.round_f32 (x () *. y ())
            | Defs.Div -> fun () -> st.f_regs.(d) <- Rvalue.round_f32 (x () /. y ())
          else
            match b with
            | Defs.Add -> fun () -> st.f_regs.(d) <- x () +. y ()
            | Defs.Sub -> fun () -> st.f_regs.(d) <- x () -. y ()
            | Defs.Mul -> fun () -> st.f_regs.(d) <- x () *. y ()
            | Defs.Div -> fun () -> st.f_regs.(d) <- x () /. y ()
        end
    | Defs.Alt_binop kinds ->
        let d = vdst () in
        let x = rop i.Defs.ops.(0) and y = rop i.Defs.ops.(1) in
        let fs = Array.map (fun k -> scalar_binop elem k) kinds in
        fun () ->
          let xv = Rvalue.as_vec (x ()) in
          let yv = Rvalue.as_vec (y ()) in
          st.v_regs.(d) <- Rvalue.R_vec (Array.mapi (fun k xk -> fs.(k) xk yv.(k)) xv)
    | Defs.Gep ->
        let d = vdst () in
        let p = rop i.Defs.ops.(0) and idx = iop i.Defs.ops.(1) in
        fun () ->
          let base, off = Rvalue.as_ptr (p ()) in
          let k = Int64.to_int (idx ()) in
          st.v_regs.(d) <- Rvalue.R_ptr { base; offset = off + k }
    | Defs.Load ->
        let p = rop i.Defs.ops.(0) in
        if Ty.is_vector i.Defs.ty then begin
          let d = vdst () in
          let lanes = Ty.lanes i.Defs.ty in
          let is_f32 = elem = Ty.F32 and want_int = Ty.scalar_is_int elem in
          fun () ->
            let base, off = Rvalue.as_ptr (p ()) in
            let out = Array.make lanes Rvalue.R_undef in
            (match get_buf base with
            | Memory.F_buf a ->
                let len = Array.length a in
                for k = 0 to lanes - 1 do
                  let o = off + k in
                  Memory.check_bounds ~len ~base ~off:o;
                  if want_int then Memory.read_type_error ~elem ~base;
                  let f = a.(o) in
                  out.(k) <- Rvalue.R_float (if is_f32 then Rvalue.round_f32 f else f)
                done
            | Memory.I_buf a ->
                let len = Array.length a in
                for k = 0 to lanes - 1 do
                  let o = off + k in
                  Memory.check_bounds ~len ~base ~off:o;
                  if not want_int then Memory.read_type_error ~elem ~base;
                  out.(k) <- Rvalue.R_int a.(o)
                done);
            st.v_regs.(d) <- Rvalue.R_vec out
        end
        else if Ty.scalar_is_int elem then begin
          let d = idst () in
          fun () ->
            let base, off = Rvalue.as_ptr (p ()) in
            match get_buf base with
            | Memory.I_buf a ->
                Memory.check_bounds ~len:(Array.length a) ~base ~off;
                st.i_regs.(d) <- a.(off)
            | Memory.F_buf a ->
                Memory.check_bounds ~len:(Array.length a) ~base ~off;
                Memory.read_type_error ~elem ~base
        end
        else begin
          let d = fdst () in
          let is_f32 = elem = Ty.F32 in
          fun () ->
            let base, off = Rvalue.as_ptr (p ()) in
            match get_buf base with
            | Memory.F_buf a ->
                Memory.check_bounds ~len:(Array.length a) ~base ~off;
                let f = a.(off) in
                st.f_regs.(d) <- (if is_f32 then Rvalue.round_f32 f else f)
            | Memory.I_buf a ->
                Memory.check_bounds ~len:(Array.length a) ~base ~off;
                Memory.read_type_error ~elem ~base
        end
    | Defs.Store ->
        let velem = Ty.elem (Value.ty i.Defs.ops.(0)) in
        let v = rop i.Defs.ops.(0) and p = rop i.Defs.ops.(1) in
        let is_f32 = velem = Ty.F32 in
        (* Mirrors Memory.write on a pre-resolved buffer: bounds, then
           unbox, then (rounded) assign — same trap order. *)
        let write_one base off (lane : Rvalue.t) =
          match get_buf base with
          | Memory.F_buf a ->
              Memory.check_bounds ~len:(Array.length a) ~base ~off;
              let f = Rvalue.as_float lane in
              a.(off) <- (if is_f32 then Rvalue.round_f32 f else f)
          | Memory.I_buf a ->
              Memory.check_bounds ~len:(Array.length a) ~base ~off;
              a.(off) <- Rvalue.as_int lane
        in
        fun () ->
          let value = v () in
          let base, off = Rvalue.as_ptr (p ()) in
          (match value with
          | Rvalue.R_vec lanes -> (
              match get_buf base with
              | Memory.F_buf a ->
                  let len = Array.length a in
                  Array.iteri
                    (fun k lane ->
                      let o = off + k in
                      Memory.check_bounds ~len ~base ~off:o;
                      let f = Rvalue.as_float lane in
                      a.(o) <- (if is_f32 then Rvalue.round_f32 f else f))
                    lanes
              | Memory.I_buf a ->
                  let len = Array.length a in
                  Array.iteri
                    (fun k lane ->
                      let o = off + k in
                      Memory.check_bounds ~len ~base ~off:o;
                      a.(o) <- Rvalue.as_int lane)
                    lanes)
          | lane -> write_one base off lane)
    | Defs.Insert -> (
        let d = vdst () in
        let v = rop i.Defs.ops.(0) and s = rop i.Defs.ops.(1) in
        let lanes = Ty.lanes i.Defs.ty in
        match Value.as_const_int i.Defs.ops.(2) with
        | None -> fun () -> error "insert lane"
        | Some lane ->
            fun () ->
              let arr =
                match v () with
                | Rvalue.R_vec a -> Array.copy a
                | Rvalue.R_undef -> Array.make lanes Rvalue.R_undef
                | _ -> error "insert into non-vector"
              in
              let sv = s () in
              arr.(lane) <- sv;
              st.v_regs.(d) <- Rvalue.R_vec arr)
    | Defs.Extract -> (
        let v = rop i.Defs.ops.(0) in
        match Value.as_const_int i.Defs.ops.(1) with
        | None -> fun () -> error "extract lane"
        | Some lane -> (
            match i.Defs.ty with
            | Ty.Scalar (Ty.F32 | Ty.F64) ->
                (* Eagerly unboxes into the scalar bank: an undef lane
                   traps here rather than at its first use (see the
                   header comment). *)
                let d = fdst () in
                fun () -> st.f_regs.(d) <- Rvalue.as_float (Rvalue.as_vec (v ())).(lane)
            | Ty.Scalar (Ty.I32 | Ty.I64) ->
                let d = idst () in
                fun () -> st.i_regs.(d) <- Rvalue.as_int (Rvalue.as_vec (v ())).(lane)
            | Ty.Vector _ | Ty.Ptr _ ->
                let d = vdst () in
                fun () -> st.v_regs.(d) <- (Rvalue.as_vec (v ())).(lane)))
    | Defs.Shuffle mask ->
        let d = vdst () in
        let v1 = rop i.Defs.ops.(0) and v2 = rop i.Defs.ops.(1) in
        let n = Ty.lanes (Value.ty i.Defs.ops.(0)) in
        let mask = Array.copy mask in
        fun () ->
          let a1 = v1 () and a2 = v2 () in
          let from_vec v j =
            match v with
            | Rvalue.R_vec a -> a.(j)
            | Rvalue.R_undef -> Rvalue.R_undef
            | _ -> error "shuffle of non-vector"
          in
          st.v_regs.(d) <-
            Rvalue.R_vec
              (Array.map (fun k -> if k < n then from_vec a1 k else from_vec a2 (k - n)) mask)
    | Defs.Icmp c ->
        if Ty.is_vector i.Defs.ty then begin
          let d = vdst () in
          let x = rop i.Defs.ops.(0) and y = rop i.Defs.ops.(1) in
          let one a b = cmp_result c (Int64.compare (Rvalue.as_int a) (Rvalue.as_int b)) in
          fun () ->
            match (x (), y ()) with
            | Rvalue.R_vec xv, Rvalue.R_vec yv ->
                st.v_regs.(d) <- Rvalue.R_vec (Array.map2 one xv yv)
            | a, b -> st.v_regs.(d) <- one a b
        end
        else begin
          let d = idst () in
          let x = iop i.Defs.ops.(0) and y = iop i.Defs.ops.(1) in
          fun () -> st.i_regs.(d) <- cmp_bit c (Int64.compare (x ()) (y ()))
        end
    | Defs.Fcmp c ->
        if Ty.is_vector i.Defs.ty then begin
          let d = vdst () in
          let x = rop i.Defs.ops.(0) and y = rop i.Defs.ops.(1) in
          let one a b = float_cmp_result c (Rvalue.as_float a) (Rvalue.as_float b) in
          fun () ->
            match (x (), y ()) with
            | Rvalue.R_vec xv, Rvalue.R_vec yv ->
                st.v_regs.(d) <- Rvalue.R_vec (Array.map2 one xv yv)
            | a, b -> st.v_regs.(d) <- one a b
        end
        else begin
          let d = idst () in
          let x = fop i.Defs.ops.(0) and y = fop i.Defs.ops.(1) in
          fun () -> st.i_regs.(d) <- float_cmp_bit c (x ()) (y ())
        end
    | Defs.Select -> (
        if Ty.is_vector i.Defs.ty then begin
          let d = vdst () in
          let co = rop i.Defs.ops.(0) in
          let t = rop i.Defs.ops.(1) and e = rop i.Defs.ops.(2) in
          fun () ->
            match co () with
            | Rvalue.R_vec cv ->
                let tv = Rvalue.as_vec (t ()) and ev = Rvalue.as_vec (e ()) in
                st.v_regs.(d) <-
                  Rvalue.R_vec
                    (Array.mapi
                       (fun k ck ->
                         if Int64.compare (Rvalue.as_int ck) 0L <> 0 then tv.(k) else ev.(k))
                       cv)
            | c ->
                st.v_regs.(d) <-
                  (if Int64.compare (Rvalue.as_int c) 0L <> 0 then t () else e ())
        end
        else
          let co = iop i.Defs.ops.(0) in
          match i.Defs.ty with
          | Ty.Scalar (Ty.F32 | Ty.F64) ->
              let d = fdst () in
              let t = fop i.Defs.ops.(1) and e = fop i.Defs.ops.(2) in
              fun () ->
                st.f_regs.(d) <- (if Int64.compare (co ()) 0L <> 0 then t () else e ())
          | Ty.Scalar (Ty.I32 | Ty.I64) ->
              let d = idst () in
              let t = iop i.Defs.ops.(1) and e = iop i.Defs.ops.(2) in
              fun () ->
                st.i_regs.(d) <- (if Int64.compare (co ()) 0L <> 0 then t () else e ())
          | Ty.Ptr _ | Ty.Vector _ ->
              let d = vdst () in
              let t = rop i.Defs.ops.(1) and e = rop i.Defs.ops.(2) in
              fun () ->
                st.v_regs.(d) <- (if Int64.compare (co ()) 0L <> 0 then t () else e ()))
    | Defs.Phi preds ->
        (* Select the operand whose predecessor [cur_pred] names; only
           the chosen accessor runs, matching the tree-walker's lazy
           evaluation of the untaken incoming values. *)
        let preds = Array.copy preds in
        let npred = Array.length preds in
        let pick () =
          let rec find k =
            if k >= npred then error "phi: no incoming edge for predecessor"
            else if preds.(k) = st.cur_pred then k
            else find (k + 1)
          in
          find 0
        in
        (match i.Defs.ty with
        | Ty.Scalar (Ty.F32 | Ty.F64) ->
            let d = fdst () in
            let ops = Array.map fop i.Defs.ops in
            fun () -> st.f_regs.(d) <- ops.(pick ()) ()
        | Ty.Scalar (Ty.I32 | Ty.I64) ->
            let d = idst () in
            let ops = Array.map iop i.Defs.ops in
            fun () -> st.i_regs.(d) <- ops.(pick ()) ()
        | Ty.Vector _ | Ty.Ptr _ ->
            let d = vdst () in
            let ops = Array.map rop i.Defs.ops in
            fun () -> st.v_regs.(d) <- ops.(pick ()) ())
  in
  let blocks = Array.of_list (Func.blocks func) in
  let index_of_bid = Hashtbl.create 16 in
  Array.iteri (fun k (b : Defs.block) -> Hashtbl.replace index_of_bid b.Defs.bid k) blocks;
  let bidx (b : Defs.block) =
    match Hashtbl.find_opt index_of_bid b.Defs.bid with
    | Some k -> k
    | None -> invalid_arg "Interp.compile: branch to a block outside the function"
  in
  let compile_term (t : Defs.terminator) : cterm =
    match t with
    | Defs.Ret -> C_ret
    | Defs.Br b -> C_br (bidx b)
    | Defs.Cond_br (c, t1, t2) -> C_cond_br (iop c, bidx t1, bidx t2)
    | Defs.Unterminated -> C_unterminated
  in
  let cblocks =
    Array.map
      (fun (b : Defs.block) ->
        let instrs = Block.to_array b in
        {
          body = Array.map compile_instr instrs;
          src = instrs;
          cterm = compile_term b.Defs.term;
          src_bid = b.Defs.bid;
        })
      blocks
  in
  { pfunc = func; st; cblocks }

(* [execute ?on_exec ?max_steps plan ~args ~memory] replays one call
   and returns the number of executed instructions.  The driver loop
   owns the per-instruction bookkeeping (hook, step count, budget), so
   instruction closures stay pure work. *)
let execute ?on_exec ?(max_steps = 10_000_000) (plan : plan)
    ~(args : Rvalue.t array) ~(memory : Memory.t) : int =
  let func = plan.pfunc in
  let nargs = Array.length (Func.args func) in
  if Array.length args <> nargs then
    error "@%s expects %d arguments, got %d" (Func.name func) nargs (Array.length args);
  let st = plan.st in
  st.cur_args <- args;
  st.cur_mem <- memory;
  if Array.length st.bufs <> nargs then st.bufs <- Array.make nargs None;
  for p = 0 to nargs - 1 do
    st.bufs.(p) <- Hashtbl.find_opt memory p
  done;
  if Array.length plan.cblocks = 0 then ignore (Func.entry func);
  st.cur_pred <- -1;
  let steps = ref 0 in
  let rec go k =
    let cb = plan.cblocks.(k) in
    let body = cb.body in
    let n = Array.length body in
    (match on_exec with
    | None ->
        for j = 0 to n - 1 do
          incr steps;
          if !steps > max_steps then error "step budget exceeded (runaway execution)";
          body.(j) ()
        done
    | Some hook ->
        let src = cb.src in
        for j = 0 to n - 1 do
          hook src.(j);
          incr steps;
          if !steps > max_steps then error "step budget exceeded (runaway execution)";
          body.(j) ()
        done);
    match cb.cterm with
    | C_ret -> ()
    | C_br t ->
        st.cur_pred <- cb.src_bid;
        go t
    | C_cond_br (c, t1, t2) ->
        let taken = if Int64.compare (c ()) 0L <> 0 then t1 else t2 in
        st.cur_pred <- cb.src_bid;
        go taken
    | C_unterminated -> error "fell off an unterminated block"
  in
  go 0;
  !steps

(* --- Engine selection ------------------------------------------------------ *)

type engine = Tree | Compiled

(* [exec ?engine func ~args ~memory] runs one call on the chosen
   engine and returns the executed-instruction count.  Single-shot
   convenience: callers that execute a function repeatedly should
   [compile] once and [execute] the plan. *)
let exec ?(engine = Compiled) ?on_exec ?max_steps (func : Defs.func)
    ~(args : Rvalue.t array) ~(memory : Memory.t) : int =
  match engine with
  | Tree -> run_counted ?on_exec ?max_steps func ~args ~memory
  | Compiled -> execute ?on_exec ?max_steps (compile func) ~args ~memory
