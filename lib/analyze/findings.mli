(** The shared finding record: one shape for Txstatic's static verdicts
    and Txcheck's runtime findings, so CI can diff the two sides
    machine-readably instead of scraping tables. *)

type source = Static | Runtime

type t = {
  f_source : source;
  f_severity : string;  (** ["violation"] or ["advisory"] *)
  f_kind : string;
      (** static: ["unsafe-nload"], ["unsafe-nstore"], ["restart-hazard"],
          ["reread-after-release"], ["capacity-overflow"],
          ["set-conflict"], ["capacity-contradiction"]; runtime: the
          {!Asf_check.Check.finding} kinds, plus the serve-harness kinds
          ["non-linearizable"] / ["lin-inconclusive"] (the Txlin oracle)
          and ["partition"] (the outcome-partition invariant) *)
  f_workload : string;
  f_class : string;  (** transaction class, [""] when workload-wide *)
  f_variant : string;  (** hardware variant, [""] when variant-independent *)
  f_line : int option;  (** offending cache-line index, when known *)
  f_count : int;
  f_detail : string;
}

val make :
  source:source ->
  severity:string ->
  kind:string ->
  workload:string ->
  ?cls:string ->
  ?variant:string ->
  ?line:int ->
  ?count:int ->
  detail:string ->
  unit ->
  t

val of_check : workload:string -> Asf_check.Check.finding list -> t list
(** Txcheck findings rebased into the shared record ([f_source =
    Runtime]; part name folded into the detail). *)

val of_livelock : workload:string -> Asf_tm_rt.Tm.diagnosis -> t list
(** Flatten a progress-watchdog diagnosis into findings: one [livelock]
    violation summarising the stall (count = cycles without a commit)
    followed by one [livelock-core] advisory per context, so
    [--check-json] artifacts record {e why} a run was killed with exit
    code 3 rather than only that it was. *)

val is_violation : t -> bool

(** {1 JSON} *)

val json_of_findings : t list -> string
(** The findings as a JSON array (one object per finding, stable key
    order). *)

val validate_json : ?required:string list -> string -> (unit, string) result
(** Structural check on an emitted document: balanced brackets outside
    strings and every [required] key present (default: ["schema"] and
    ["findings"]). *)

val write_json :
  ?required:string list -> path:string -> string -> (unit, string) result
(** Write a whole JSON document, then re-read and {!validate_json} it
    against [required] — the emit-then-verify discipline the bench
    harness uses too. *)
