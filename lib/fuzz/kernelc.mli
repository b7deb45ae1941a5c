(** Seeded random KernelC kernels aimed at memory order: cells written
    twice, lanes that read a neighbour's cell, and if/else arms and
    short counted loops whose if-converted and unrolled bodies
    interleave store groups' lanes — shapes {!Gen}'s back-to-back
    store groups never build. *)

val generate : seed:int -> string
(** [generate ~seed] is the source of one kernel [r(double a[],
    double b[], double c[], long i)] of 3 to 6 statements.  A statement
    stores into [X[i+k]] ([k] in 0..3, [X] mostly [a]) a load, a
    constant or a [+ - *] tree of depth at most 2 over those; or it is
    an [if (load cmp constant-or-load)] with an optional [else], or a
    [for (long j = 0; j < 2..4; j = j + 1)] over [X[i+j+k]], nested
    to depth 2 with 1 to 3 statements per arm.  Deterministic per
    seed. *)
