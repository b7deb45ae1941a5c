(* snslpd — the compile service daemon.

   Serves the line-framed snslpd protocol (see docs/SERVICE.md) over
   stdio by default, or over a Unix-domain socket with --socket; the
   one compile cache persists across socket connections, so a client
   reconnecting pays nothing to re-warm it.

     snslpd                           # stdio, exits on quit/EOF
     snslpd --socket /tmp/snslpd.sock # accept loop, one client at a time
     echo stats | snslpd              # one-shot counters *)

open Cmdliner

(* Reply lines collect in [oc]'s buffer, and the reader flushes it
   before it blocks for the next line: each reply leaves in one write,
   and never waits behind the compile of a request pipelined after it. *)
let serve_channels server ic oc =
  Snslp_service.Server.serve server
    ~reader:(fun () ->
      Out_channel.flush oc;
      In_channel.input_line ic)
    ~writer:(fun line ->
      Out_channel.output_string oc line;
      Out_channel.output_char oc '\n')

let serve_stdio server =
  serve_channels server In_channel.stdin Out_channel.stdout;
  Out_channel.flush Out_channel.stdout

let serve_socket server path =
  (* A dead client mid-response must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists path then Unix.unlink path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Fmt.epr "snslpd: listening on %s@." path;
  let cleanup () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
  in
  at_exit cleanup;
  let rec accept_loop () =
    let client, _ = Unix.accept sock in
    let oc = Unix.out_channel_of_descr client in
    (try serve_channels server (Unix.in_channel_of_descr client) oc
     with Sys_error _ | Unix.Unix_error _ -> ());
    (* Closes [client] too.  A hung-up client's unflushed bytes are
       dropped here; left in the channel, they would be flushed at exit
       into whatever descriptor reused the number. *)
    close_out_noerr oc;
    accept_loop ()
  in
  accept_loop ()

let run socket capacity =
  if capacity < 1 then begin
    Fmt.epr "--capacity must be at least 1@.";
    exit 2
  end;
  let server = Snslp_service.Server.create ~capacity () in
  match socket with
  | None -> serve_stdio server
  | Some path -> serve_socket server path

let () =
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ]
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (accept loop, one \
             client at a time, cache shared across connections) instead of \
             serving stdio."
          ~docv:"PATH")
  in
  let capacity =
    Arg.(
      value & opt int Snslp_service.Cache.default_capacity
      & info [ "capacity" ] ~doc:"Compile cache entry budget (LRU beyond it).")
  in
  let term = Term.(const run $ socket $ capacity) in
  let info =
    Cmd.info "snslpd"
      ~doc:"Super-Node SLP compile service with a semantic compile cache"
  in
  exit (Cmd.eval (Cmd.v info term))
