(** STAMP genome: gene sequencing by segment overlap matching.

    The input is a random nucleotide string (2 bits per base, packed 32
    bases per simulated word) sampled into overlapping fixed-length
    segments with duplicates. Three phases, as in STAMP:

    + {e deduplication} — every thread inserts its share of segment
      instances into a shared hash map (most are duplicates, so most
      transactions are read-only probes);
    + {e overlap matching} — for overlap lengths [seg_len-1] down to 1,
      threads first publish the prefixes of all not-yet-claimed segments
      in a per-round hash map, then try to extend every chain-end by
      looking up its suffix — link transactions claim the successor so a
      segment acquires at most one predecessor;
    + {e rebuild} — a single thread walks every chain and reassembles the
      sequence.

    Validation checks that deduplication found exactly the distinct
    segments and that the chains partition them (each segment in exactly
    one chain, no cycles). *)

type cfg = {
  gene_length : int;  (** bases *)
  seg_len : int;  (** bases per segment; at most 31 *)
  n_segs : int;  (** sampled instances (including duplicates) *)
  work_per_segment : int;
}

val default : cfg

val program : cfg -> Stamp_common.program
