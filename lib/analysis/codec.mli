(** Field descriptors for JSON records.

    One declaration per record yields its encoder, its decoder and a
    random generator (for round-trip properties), so the three cannot
    drift apart. A record is declared as its constructor plus its
    members in wire order:

    {[
      let op =
        Codec.(
          record
            (fun insert rel tuple -> ...)
            [ req "op" direction is_insert; req "rel" string rel;
              req "tuple" (array int) tuple ])
    ]}

    Decoding reads the members in declaration order and applies the
    constructor to their values, stopping at the first refusal;
    encoding emits them in the same order in one pass (a member whose
    rule omits it emits nothing). Whether a member defaults, refuses or
    is skipped — and with which message — is part of its declaration
    ({!req}, {!opt}, {!dft}, {!lax}, {!lax_opt}).

    Decoders are total: any input yields [Ok] or [Error], never an
    exception. Kinds receive the field name for their messages
    (["field \"eps\" must be a number"]). *)

(** Object members in wire order. *)
type tail = (string * Json.t) list

(** {2 Value kinds} *)

(** How one value travels: its JSON rendering, its decoder and a
    generator of values that survive {!Json.to_string} and
    {!Json.parse} unchanged. *)
type 'a t

(** [Int] only. *)
val int : int t

(** Rendered with [%.6g] (lossy — timings and other display values);
    [Int] widens. *)
val float : float t

(** Rendered as {!Json.Exact}: the shortest [%.{6..17}g] that reads
    back bit-for-bit, so values that [%.6g] already carries keep their
    bytes. *)
val exact_float : float t

val string : string t
val bool : bool t

(** Only [true] decodes as [true]; anything else is [false] — never a
    refusal. *)
val truthy : bool t

(** Any value, verbatim. *)
val json : Json.t t

(** A string from a closed set: [to_string] renders, [of_string]
    parses (it may accept aliases), [values] drives the generator;
    an unrecognised string is refused with [unknown s]. *)
val enum :
  unknown:(string -> string) ->
  ('a -> string) ->
  (string -> 'a option) ->
  'a list ->
  'a t

(** [null] is [None]. *)
val nullable : 'a t -> 'a option t

(** A JSON array. [bad name] refuses a non-array (default
    ["field %S must be a list"]), [empty name] refuses an empty one,
    and with [skip_bad] elements that fail to decode are dropped
    instead of refusing the list. *)
val list :
  ?bad:(string -> string) ->
  ?empty:(string -> string) ->
  ?skip_bad:bool ->
  'a t ->
  'a list t

val array : ?bad:(string -> string) -> 'a t -> 'a array t

(** Accept only values [check] passes ([Error msg] refuses with
    [msg]); [gen] replaces the generator so it stays in range. *)
val refine :
  ?gen:(Random.State.t -> 'a) -> ('a -> ('a, string) result) -> 'a t -> 'a t

(** Anything that does not decode is [default] — never a refusal. *)
val or_default : 'a -> 'a t -> 'a t

(** Replace every refusal of the kind with [msg name]. *)
val with_error : (string -> string) -> 'a t -> 'a t

(** {2 Records} *)

type 'r record

(** One member of a record of type ['r]; ['k] is the constructor type
    still to be applied when the member is reached, ['z] what is left
    after it. *)
type ('r, 'k, 'z) field

type ('r, 'k, 'z) fields =
  | [] : ('r, 'z, 'z) fields
  | ( :: ) : ('r, 'k, 'm) field * ('r, 'm, 'z) fields -> ('r, 'k, 'z) fields

(** [record make fields]: decoding applies [make] to the members'
    values in order. *)
val record : 'k -> ('r, 'k, 'r) fields -> 'r record

(** Required: absent is refused with [missing] (default
    ["missing field %S"]); [null] goes to the kind. *)
val req : ?missing:string -> string -> 'a t -> ('r -> 'a) -> ('r, 'a -> 'z, 'z) field

(** Optional: absent or [null] is [None]; emitted only when [Some]. *)
val opt : string -> 'a t -> ('r -> 'a option) -> ('r, 'a option -> 'z, 'z) field

(** Defaulted: absent or [null] is [default], an ill-typed value is
    refused. Emitted unless [omit] holds of the value. *)
val dft :
  ?omit:('a -> bool) -> string -> 'a t -> 'a -> ('r -> 'a) -> ('r, 'a -> 'z, 'z) field

(** Lenient: {!dft} of {!or_default} — anything that does not decode
    is [default], never a refusal. *)
val lax :
  ?omit:('a -> bool) -> string -> 'a t -> 'a -> ('r -> 'a) -> ('r, 'a -> 'z, 'z) field

(** Lenient optional: anything that does not decode is [None];
    emitted only when [Some]. *)
val lax_opt : string -> 'a t -> ('r -> 'a option) -> ('r, 'a option -> 'z, 'z) field

(** A nested object whose members feed the enclosing constructor. An
    absent object is refused with [missing] when given, and otherwise
    decodes as an empty one; [bad] replaces any refusal from inside. *)
val nest :
  ?missing:string -> ?bad:string -> string -> ('r, 'k, 'z) fields -> ('r, 'k, 'z) field

(** Another record's members, inline at this level. *)
val embed : 'a record -> ('r -> 'a) -> ('r, 'a -> 'z, 'z) field

(** A member spread over several keys that no rule above describes:
    [emit] prepends its keys, [read] decodes them from the enclosing
    object. *)
val member :
  emit:('a -> tail -> tail) ->
  read:(Json.t -> ('a, string) result) ->
  gen:(Random.State.t -> 'a) ->
  ('r -> 'a) ->
  ('r, 'a -> 'z, 'z) field

(** A record as a JSON object. With [bad], a non-object is refused with
    [bad name]; without it, a non-object decodes as an object with no
    members. *)
val obj : ?bad:(string -> string) -> 'r record -> 'r t

(** {2 Variants} *)

(** One constructor of a variant ['v], travelling as a record under a
    tag. *)
type 'v case

val case : string -> 'x record -> ('x -> 'v) -> ('v -> 'x option) -> 'v case

(** {2 Running} *)

(** Prepend the record's members to [tail]. *)
val emit : 'r record -> 'r -> tail -> tail

(** Decode a record from the members of an object. *)
val read : 'r record -> Json.t -> ('r, string) result

val to_json : 'a t -> 'a -> Json.t

(** [of_json kind name j] decodes [j] as the value of field [name]. *)
val of_json : 'a t -> string -> Json.t -> ('a, string) result

(** The member [name] of object [j] under {!req} rules. *)
val get : string -> 'a t -> Json.t -> ('a, string) result

(** The member [name] of object [j] under {!opt} rules. *)
val get_opt : string -> 'a t -> Json.t -> ('a option, string) result

(** The tag and members of a variant value; the first case whose
    projection accepts it wins. *)
val emit_case : 'v case list -> 'v -> string * tail

(** Decode the members of [j] with the case tagged [tag]; [None] when
    no case has that tag. *)
val read_case : 'v case list -> string -> Json.t -> ('v, string) result option

val gen : 'a t -> Random.State.t -> 'a
val gen_record : 'r record -> Random.State.t -> 'r
val gen_case : 'v case list -> Random.State.t -> 'v
