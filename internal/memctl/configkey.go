package memctl

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// ConfigKey serializes values into one canonical string: equal keys
// mean equal inputs, field by field. It is the key of the experiment
// run memo, over a run's sim.Config, workload profiles, capacity
// config and the backend config its Mod produces (Backend.Config).
//
// Every field is encoded, exported or not, except struct fields tagged
// `key:"-"`; each such tag carries a comment saying why the field
// cannot change a result. Interfaces encode their dynamic type, maps
// their entries in key order, floats their bits. A func, pointer,
// channel or unsafe pointer anywhere else panics: its identity says
// nothing about what it does, so it could alias two different inputs.
func ConfigKey(vs ...any) string {
	var b strings.Builder
	for _, v := range vs {
		encodeKey(&b, reflect.ValueOf(v), "")
		b.WriteByte(';')
	}
	return b.String()
}

func encodeKey(b *strings.Builder, v reflect.Value, path string) {
	if !v.IsValid() {
		b.WriteString("nil")
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.WriteString("0x" + strconv.FormatUint(math.Float64bits(v.Float()), 16))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Slice, reflect.Array:
		b.WriteString("[" + strconv.Itoa(v.Len()) + ":")
		for i := 0; i < v.Len(); i++ {
			encodeKey(b, v.Index(i), path+"["+strconv.Itoa(i)+"]")
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case reflect.Map:
		entries := make([]string, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var e strings.Builder
			encodeKey(&e, it.Key(), path+"[key]")
			e.WriteByte('=')
			encodeKey(&e, it.Value(), path+"["+fmt.Sprint(it.Key())+"]")
			entries = append(entries, e.String())
		}
		sort.Strings(entries)
		b.WriteString("map{" + strings.Join(entries, ",") + "}")
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteString("(" + v.Elem().Type().String() + ")")
		encodeKey(b, v.Elem(), path)
	case reflect.Struct:
		t := v.Type()
		b.WriteString(t.PkgPath() + "." + t.Name() + "{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Tag.Get("key") == "-" {
				continue
			}
			b.WriteString(f.Name + ":")
			encodeKey(b, v.Field(i), path+"."+f.Name)
			b.WriteByte(',')
		}
		b.WriteByte('}')
	default:
		panic(fmt.Sprintf("memctl: ConfigKey cannot encode %s field %s (%s); tag it `key:\"-\"` with the reason it cannot change a result",
			v.Kind(), strings.TrimPrefix(path, "."), v.Type()))
	}
}
