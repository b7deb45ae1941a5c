(* Output checks, run after the timed stream and the same way on every
   run.

   A reply passes when it is byte-identical to what a fresh in-process
   server ([Server.create], then [handle_batch]) answers for the
   request's [expect] text, and when the served IR, re-parsed and
   interpreted, leaves the same memory as the request's unoptimised
   function.  Passing replies outside o3 are also priced with simperf
   against the o3 compile of the same source: the paper's Fig. 5
   ratio.  Both checks are memoised on their inputs, so a repeated
   request costs one table lookup. *)

open Snslp_ir
open Snslp_vectorizer
open Snslp_passes
module Server = Snslp_service.Server
module Protocol = Snslp_service.Protocol
module Registry = Snslp_kernels.Registry
module Workload = Snslp_kernels.Workload
module Memory = Snslp_interp.Memory

(* Loop iterations of the interpreter and simulator checks: every
   store of a body runs, and cycle ratios do not depend on it. *)
let iters = 4

let tolerance = 1e-6

(* The modes the workloads send, as the daemon reads them.
   [Server.setting_of_mode] is private, so [check_modes] compares this
   table with the server at start-up. *)
let modes =
  [ "o3"; "sn-slp"; "sn-slp+global"; "sn-slp@avx512+revec"; "sn-slp+global@avx512+revec" ]

let setting_of_mode mode : Pipeline.setting =
  let global c =
    {
      c with
      Config.packing =
        Config.Global { beam = Config.default_beam; node_budget = Config.default_node_budget };
    }
  in
  let avx512_revec c =
    {
      c with
      Config.target = Snslp_costmodel.Target.avx512;
      model = Snslp_costmodel.Model.for_target Snslp_costmodel.Target.avx512;
      revec = true;
    }
  in
  match mode with
  | "o3" -> None
  | "sn-slp" -> Some Config.snslp
  | "sn-slp+global" -> Some (global Config.snslp)
  | "sn-slp@avx512+revec" -> Some (avx512_revec Config.snslp)
  | "sn-slp+global@avx512+revec" -> Some (avx512_revec (global Config.snslp))
  | m -> invalid_arg ("no setting for mode " ^ m)

(* The server's rendering of one optimised function. *)
let print_func f =
  let s = Format.asprintf "%a" Printer.pp_func f in
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = '\n' do decr n done;
  String.sub s 0 !n

(* A response as a client reads it off the wire. *)
let over_wire (r : Protocol.response) =
  let q = Queue.create () in
  Protocol.write_response (fun l -> Queue.push l q) r;
  match Protocol.read_response (fun () -> Queue.take_opt q) with
  | Some (Ok r) -> r
  | Some (Error e) -> Protocol.Err ("unreadable response: " ^ e)
  | None -> Protocol.Err "empty response"

let fresh ~mode source =
  match Server.handle_batch (Server.create ()) [ Ok (mode, source) ] with
  | [ r ] -> over_wire r
  | rs -> Protocol.Err (Printf.sprintf "%d responses to one request" (List.length rs))

let check_modes sample =
  let f = Snslp_frontend.Frontend.compile_one sample in
  List.iter
    (fun mode ->
      let mine = print_func (Pipeline.run ~setting:(setting_of_mode mode) f).Pipeline.func in
      match fresh ~mode sample with
      | Protocol.Compiled { ir; _ } when String.equal ir mine -> ()
      | Protocol.Compiled _ | Protocol.Err _ | Protocol.Stats_reply _ ->
          failwith ("the replay's setting for mode " ^ mode ^ " differs from the server's"))
    modes

type verdict = {
  error : string option;
  cycles : (float * float) option; (* o3, served; None under o3 *)
}

type t = {
  expected : (string, Protocol.response) Hashtbl.t;
  semantic : (Digest.t, verdict) Hashtbl.t;
}

let create () = { expected = Hashtbl.create 4096; semantic = Hashtbl.create 4096 }

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v

let semantics (r : Gen.request) ir =
  try
    let reg = r.Gen.base.Gen.reg in
    let w = Workload.prepare ~iters { reg with Registry.source = r.Gen.source } in
    let w =
      {
        w with
        Workload.buffer_size =
          (reg.Registry.extent * (iters + 2) * reg.Registry.istride) + r.Gen.base.Gen.slack;
      }
    in
    let served = Ir_parser.parse ir in
    (* One deterministic fill, copied per run: filling is most of a
       small kernel's check. *)
    let template = Workload.fresh_memory w w.Workload.func in
    let run f =
      let memory = Memory.snapshot template in
      let plan = Snslp_interp.Interp.compile f in
      for it = 0 to iters - 1 do
        ignore (Snslp_interp.Interp.execute plan ~args:(Workload.make_args w f it) ~memory)
      done;
      memory
    in
    match Memory.diff_nan_safe ~tolerance (run w.Workload.func) (run served) with
    | Some d -> { error = Some ("interpreted memory differs: " ^ d); cycles = None }
    | None ->
        let cycles =
          Option.map
            (fun (c : Config.t) ->
              let o3 = (Pipeline.run ~setting:None w.Workload.func).Pipeline.func in
              let price f =
                (Snslp_simperf.Simperf.measure ~model:c.Config.model ~target:c.Config.target f
                   ~memory:(Memory.snapshot template) ~make_args:(Workload.make_args w f) ~iters)
                  .Snslp_simperf.Simperf.cycles
              in
              (price o3, price served))
            (setting_of_mode r.Gen.mode)
        in
        { error = None; cycles }
  with e -> { error = Some ("served IR fails to run: " ^ Printexc.to_string e); cycles = None }

let failed e = { error = Some e; cycles = None }

let check t (r : Gen.request) (reply : (Protocol.response, string) result) =
  match reply with
  | Error e -> failed e
  | Ok (Protocol.Err e) -> failed ("err " ^ e)
  | Ok (Protocol.Stats_reply _) -> failed "a stats reply to a compile request"
  | Ok (Protocol.Compiled { ir; _ }) -> (
      match
        memo t.expected (r.Gen.mode ^ "\x00" ^ r.Gen.expect) (fun () ->
            fresh ~mode:r.Gen.mode r.Gen.expect)
      with
      | Protocol.Compiled { ir = want; _ } when String.equal want ir ->
          (* A kernel's name means nothing to the interpreter or the
             simulator, so a renamed request shares its variant's
             verdict. *)
          let unnamed s =
            match String.index_opt s '(' with
            | Some i -> String.sub s i (String.length s - i)
            | None -> s
          in
          memo t.semantic
            (Digest.string (String.concat "\x00" [ r.Gen.mode; unnamed r.Gen.source; unnamed ir ]))
            (fun () -> semantics r ir)
      | Protocol.Compiled _ -> failed "reply differs from a fresh in-process compile"
      | Protocol.Err e -> failed ("fresh compile failed: " ^ e)
      | Protocol.Stats_reply _ -> failed "fresh compile answered stats")
