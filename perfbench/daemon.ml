(* One synchronous stdio connection to a spawned snslpd.

   Every write and read has a deadline, so a dead or silent daemon
   surfaces as [Failed] instead of hanging the benchmark.  Daemons still
   running at exit are killed and reaped. *)

module Protocol = Snslp_service.Protocol

exception Failed of string

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  pid : int;
  input : Unix.file_descr; (* the daemon's stdin *)
  output : Unix.file_descr; (* the daemon's stdout *)
  lines : string Queue.t; (* complete lines read ahead *)
  partial : Buffer.t; (* the unterminated tail of the last read *)
  chunk : Bytes.t;
  mutable alive : bool;
}

let running : t list ref = ref []

let spawn exe ~capacity =
  let child_in, input = Unix.pipe ~cloexec:true () in
  let output, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--capacity"; string_of_int capacity |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  let d =
    {
      pid;
      input;
      output;
      lines = Queue.create ();
      partial = Buffer.create 4096;
      chunk = Bytes.create 65536;
      alive = true;
    }
  in
  running := d :: !running;
  d

let rec retry f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry f

let await fd ~write ~deadline =
  let left = deadline -. now () in
  if left <= 0. then raise (Failed "timed out");
  let rs, ws = if write then ([], [ fd ]) else ([ fd ], []) in
  match retry (fun () -> Unix.select rs ws [] left) with
  | [], [], _ -> raise (Failed "timed out")
  | _ -> ()

let io what f =
  try retry f with Unix.Unix_error (e, _, _) -> raise (Failed (what ^ ": " ^ Unix.error_message e))

let send d text ~deadline =
  let n = String.length text in
  let rec go off =
    if off < n then begin
      await d.input ~write:true ~deadline;
      go (off + io "write" (fun () -> Unix.single_write_substring d.input text off (n - off)))
    end
  in
  go 0

let rec read_line d ~deadline =
  if not (Queue.is_empty d.lines) then Some (Queue.pop d.lines)
  else begin
    await d.output ~write:false ~deadline;
    let k = io "read" (fun () -> Unix.read d.output d.chunk 0 (Bytes.length d.chunk)) in
    if k = 0 then None
    else begin
      let start = ref 0 in
      for i = 0 to k - 1 do
        if Bytes.get d.chunk i = '\n' then begin
          Buffer.add_subbytes d.partial d.chunk !start (i - !start);
          Queue.push (Buffer.contents d.partial) d.lines;
          Buffer.clear d.partial;
          start := i + 1
        end
      done;
      Buffer.add_subbytes d.partial d.chunk !start (k - !start);
      read_line d ~deadline
    end
  end

(* Write one request frame and read its whole response. *)
let request d text ~timeout =
  let deadline = now () +. timeout in
  send d text ~deadline;
  match Protocol.read_response (fun () -> read_line d ~deadline) with
  | Some (Ok r) -> r
  | Some (Error e) -> raise (Failed ("malformed reply: " ^ e))
  | None -> raise (Failed "no reply: the daemon closed its stdout")

let stats d ~timeout =
  match request d "stats\n" ~timeout with
  | Protocol.Stats_reply kvs -> kvs
  | Protocol.Compiled _ | Protocol.Err _ -> raise (Failed "stats: unexpected reply")

(* The daemon's peak resident set, from /proc. *)
let peak_rss_mb d =
  let prefix = "VmHWM:" in
  let n = String.length prefix in
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" d.pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> raise (Failed "no VmHWM in /proc status")
        | Some l when String.length l > n && String.equal (String.sub l 0 n) prefix ->
            Scanf.sscanf (String.sub l n (String.length l - n)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

let reap d ~grace =
  let deadline = now () +. grace in
  let rec wait () =
    match retry (fun () -> Unix.waitpid [ Unix.WNOHANG ] d.pid) with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.002;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (retry (fun () -> Unix.waitpid [] d.pid))
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let close d =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ d.input; d.output ];
  running := List.filter (fun x -> x != d) !running

(* Ask the daemon to quit, then reap it (killing it after a grace
   period). *)
let stop d =
  if d.alive then begin
    d.alive <- false;
    (try send d "quit\n" ~deadline:(now () +. 1.) with Failed _ -> ());
    reap d ~grace:5.;
    close d
  end

let kill d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap d ~grace:5.;
    close d
  end

let () = at_exit (fun () -> List.iter kill !running)
