(* Domain pool: chunked work queue with a simple steal path.

   One mutex guards everything — the deques are touched for O(1) per
   chunk and the pool is built for coarse work items (whole functions
   through the pass pipeline), so a global lock costs nothing
   measurable and keeps the memory-model reasoning trivial: every
   deque access happens under [lock], and result-slot writes are to
   disjoint indices, published to the submitter by the final
   lock/condition handshake. *)

(* A contiguous range of pending item indices.  The owning worker pops
   chunks at [lo]; thieves carve chunks off [hi].  Both moves happen
   under the pool lock. *)
type deque = { mutable lo : int; mutable hi : int }

type job = {
  seq : int; (* generation; wakes only workers that have not joined *)
  exec : int -> unit; (* compute item [i] into its result slot *)
  deques : deque array; (* one per worker *)
  chunk : int;
  mutable active : int; (* workers that have not yet checked in idle *)
  mutable failed : exn option; (* first exception, re-raised by the submitter *)
}

type t = {
  size : int; (* workers, submitter included *)
  lock : Mutex.t;
  work : Condition.t; (* helpers sleep here between jobs *)
  finished : Condition.t; (* the submitter sleeps here during a job *)
  mutable job : job option;
  mutable seq : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let recommended_jobs () = Domain.recommended_domain_count ()

(* Minimum estimated work (abstract cost units; the driver charges one
   unit per IR instruction) that must be on the table before each
   additional worker domain pays for itself.  Calibrated against
   BENCH_compile_time.json: SN-SLP compiles at roughly 2.5–7 us per
   instruction, while spawning and joining a domain costs on the order
   of 100 us — so a domain needs a few thousand instructions of work
   to amortise.  BENCH_parallel.json showed the blind fan-out losing
   2–4x on a 1-core container; this bound plus the core clamp is the
   fix. *)
let min_cost_per_domain = 2048

(* [effective_jobs ~requested ~items ~total_cost] — how many workers a
   fan-out of [items] work items with summed estimated cost
   [total_cost] should actually use: never more than requested, than
   the machine can run in parallel ([cores], default
   {!recommended_jobs}), than there are items, or than the work can
   amortise.  1 means fully inline (no domain is spawned anywhere
   downstream).  Output never depends on the answer — only wall-clock
   does — so clamping is always safe. *)
let effective_jobs ?cores ~requested ~items ~total_cost () =
  let cores = match cores with Some c -> max 1 c | None -> recommended_jobs () in
  let by_cost = 1 + (max 0 total_cost / min_cost_per_domain) in
  max 1 (min (min requested cores) (min items by_cost))

(* Next chunk for worker [w], lock held: front of the own deque, else
   a chunk stolen from the back of the fullest other deque. *)
let take (j : job) w =
  let d = j.deques.(w) in
  if d.lo < d.hi then begin
    let lo = d.lo in
    let hi = min d.hi (lo + j.chunk) in
    d.lo <- hi;
    Some (lo, hi)
  end
  else begin
    let victim = ref None in
    Array.iter
      (fun d' ->
        let remaining = d'.hi - d'.lo in
        if remaining > 0 then
          match !victim with
          | Some v when v.hi - v.lo >= remaining -> ()
          | _ -> victim := Some d')
      j.deques;
    match !victim with
    | None -> None
    | Some d' ->
        let hi = d'.hi in
        let lo = max d'.lo (hi - j.chunk) in
        d'.hi <- lo;
        Some (lo, hi)
  end

(* Run worker [w]'s share of [j].  Lock held on entry and exit.  An
   exception empties every deque so all workers converge quickly; the
   first one is kept for the submitter. *)
let participate t (j : job) w =
  let rec loop () =
    match take j w with
    | None ->
        j.active <- j.active - 1;
        if j.active = 0 then Condition.broadcast t.finished
    | Some (lo, hi) ->
        Mutex.unlock t.lock;
        let err =
          try
            for i = lo to hi - 1 do
              j.exec i
            done;
            None
          with e -> Some e
        in
        Mutex.lock t.lock;
        (match err with
        | None -> ()
        | Some e ->
            if j.failed = None then j.failed <- Some e;
            Array.iter (fun d -> d.lo <- d.hi) j.deques);
        loop ()
  in
  loop ()

(* Helper-domain main loop: sleep until a job of a newer generation
   (or shutdown) appears, work it, repeat. *)
let helper t w =
  let rec next last =
    Mutex.lock t.lock;
    let rec await () =
      if t.stop then None
      else
        match t.job with
        | Some j when j.seq > last -> Some j
        | _ ->
            Condition.wait t.work t.lock;
            await ()
    in
    match await () with
    | None -> Mutex.unlock t.lock
    | Some j ->
        participate t j w;
        Mutex.unlock t.lock;
        next j.seq
  in
  next 0

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      size = jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = None;
      seq = 0;
      stop = false;
      domains = [];
    }
  in
  t.domains <- List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> helper t (k + 1)));
  t

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map ?chunk t f (arr : 'a array) : 'b array =
  let n = Array.length arr in
  let workers = if t.stop then 1 else t.size in
  if n = 0 then [||]
  else if workers = 1 || n = 1 then Array.map f arr
  else begin
    let out = Array.make n None in
    let exec i = out.(i) <- Some (f arr.(i)) in
    let chunk =
      match chunk with Some c -> max 1 c | None -> max 1 (n / (8 * workers))
    in
    (* Contiguous per-worker ranges; workers beyond [n] start empty
       and immediately turn thief. *)
    let per = (n + workers - 1) / workers in
    let deques =
      Array.init workers (fun w -> { lo = min n (w * per); hi = min n ((w + 1) * per) })
    in
    Mutex.lock t.lock;
    t.seq <- t.seq + 1;
    let j = { seq = t.seq; exec; deques; chunk; active = workers; failed = None } in
    t.job <- Some j;
    Condition.broadcast t.work;
    participate t j 0;
    while j.active > 0 do
      Condition.wait t.finished t.lock
    done;
    t.job <- None;
    let failed = j.failed in
    Mutex.unlock t.lock;
    (match failed with Some e -> raise e | None -> ());
    Array.map Option.get out
  end

let map_list ?chunk t f l = Array.to_list (map ?chunk t f (Array.of_list l))
