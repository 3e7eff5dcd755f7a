"""Built-in common-English-word list used by the dictionary stripper.

A curated subset standing in for the usual 10k frequency list, which is not
vendored; pass ``--wordlist`` / ``RandomnessConfig(dictionary=...)`` to use a
bigger list. Only words of three letters or more matter to the stripper.
"""

from __future__ import annotations

COMMON_WORDS: tuple[str, ...] = tuple("""
the and for are but not you all any can had her was one our out day get has
him his how man new now old see two way who boy did its let put say she too
use that with have this will your from they know want been good much some
time very when come here just like long make many more only over such take
than them well were what about above after again against almost alone along
already also although always among animal answer around because become
before began behind being believe below between big black blue body book both
bring brought build built call came car care carry case catch cause
certain change check child children city class clear close cold college color
common community company complete consider contain continue control cost
could country course cover create cross current cut dark data daughter dead
deal death decide deep develop die different difficult direction do does dog
done door down draw dream drive drop during each early earth east easy eat
economy education effect eight either else end enough enter entire even
evening ever every example experience explain eye face fact fall family far
fast father fear feel feet fell felt few field fight figure fill final find
fine fire first fish five floor fly follow food foot force foreign forget
form former forward found four free friend front full future game gave
general girl give given glass goes gold gone got government great green
ground group grow growth guess gun guy hair half hand happen happy hard head
hear heard heart heat heavy held help high hill history hit hold home hope
horse hot hour house huge human hundred idea image important increase indeed
industry information inside instead interest international into issue item
job join keep kept key kid kill kind king knew land language large last late
later laugh law lead learn least leave left leg less letter level lie life
light line list listen little live local look lose loss lost lot love low
machine made main major mark market matter may maybe mean measure meet member
memory men message method middle might mile military million mind minute miss
model moment money month moon morning most mother mountain mouth move movie
music must name nation natural near nearly necessary need never news next
nice night nine north note nothing notice number occur off offer office often
oil okay once open order other others outside own page pain paper parent part
party pass past pay peace people per perhaps period person phone pick picture
piece place plan plant play player point police policy political poor popular
position possible power practice present president pressure pretty price
private probably problem process produce product program project provide
public pull purpose push quality question quick quickly quiet quite race
radio raise ran range rate rather reach read ready real really reason receive
recent record red reduce region relationship remain remember report require
research resource respond rest result return rich ride right rise risk river
road rock role room rule run said same sat save saw school science sea season
seat second section security seem seen sell send sense sent series serious
serve service set seven several shake share short shot should shoulder show
side sign significant similar simple simply since sing single sister sit site
situation six size skill skin small smile social society soldier someone
something sometimes son song soon sort sound source south space speak special
specific spend sport spring staff stage stand standard star start state
statement station stay step still stop store story street strong structure
student study stuff style subject success successful suddenly suffer suggest
summer support sure surface system table talk task tax teach teacher team
technology television tell ten tend term test thank their then theory
there these thing think third thought thousand three through throw thus today
together told tonight took top total touch toward town trade training travel
treat tree trial trip trouble true truth try turn type under understand unit
until upon used usually value various view visit voice vote wait walk wall
war watch water weapon wear week weight west western where whether which
while white whole whom whose why wide wife win wind window wish within
without woman women wonder word work worker world worry worth would write
writer wrong yard yeah year yes yet young

air arm art ask bad bag ball bank base bed bill bird bit box break bus buy
chair coat code cook cool corner cup dance desk dinner dress drink duty ear
egg fan farm fit fix flower fun garden gas gift glad grand hat hate
hello hide hole holiday ice ill jump kitchen lady lake lip lock
lunch mad map meal meat milk mine mix nose pair pan park pen pet plane plate
pocket pool pop pot press print rain ring roof salt sand
shell ship shirt shoe shop sick sky sleep slow snow sock soft soup stick
stone storm suit sun sweet swim tail tall tea thick thin ticket tiny tire
tooth train wake warm wash wave weather wet wheel wild winter wood yellow zoo

cat cats dogs ton mat rat bat bee cow fox hen owl pig
able acid aged area army away baby back bare bell belt bend bent
best bind bite blow bold bone born bowl busy cake calm camp card cast
cell chat chip clip club coal coin cope copy core corn crew crop dare dawn
debt deck deny dial diet dirt dish disk dose dual dull dust earn ease edge
evil exit fade fail fair fake fame fate feed file film firm flag flat flow
fold folk fond fool fork fort gain gate gaze gear gene goal goat gray grey
grip hall halt hang harm haul heal heap hers hint hire hook host hunt hurt
icon inch iron jail jazz joke jury kick knee knit knot lack lamp lane lap
lawn lazy leaf lean leap lend lens lift limb link lion load loan logo loop
lord loud luck mail male mall mask mass mate mild mill mode mood mud myth
nail neat neck nest net nod norm oak odd odds onto oral oven pace pack pad
pale palm path peak peer pile pill pine pink pipe pit plot plus pond port
pose pour pray pump pure quit rail rank rare raw ray rear rely rent rid
rob rope rose rub ruin rush sack safe sake sale seal seed seek self shed
shift shine sigh silk sin sink slam slice slide slight slip slope snap sole
solid solve sorry soul spare spark spin spite split spot spread squad stack
stake stamp stare steal steel steep steer stem stir strain strip stretch
sum swear sweep swing tale tank tap tape tear tide tie tight till tone
tool toss tour trace trail trap tray trend trick truck trunk trust tube
tune twin twist undo urge vary vast vein verb vice void wage wagon waist
wander wipe wire wise wolf worm wrap wrist zero zone

access account action active actor add address admin admit adopt adult
advance advice affect afford agency agent agree ahead aim alarm album alert
alive allow amount angle angry annual apart apple apply argue arise array
arrow aside asset assume attach attack attempt attend author auto avoid
aware badge balance band bar basic basis batch battle beach bear beat beauty
begin behalf bench bias birth blame blank blend blind block board boat
bonus boost border bottle bottom bound brain branch brand brave bread breath
brick bridge brief bright broad brown brush budget buffer bunch burden burn
burst button cabin cable cache camera campus cancel candle canvas capable
capital captain capture carbon career careful cargo cart cartoon cash casual
ceiling center central century chain chairman chamber chance channel chapter
charge chart chase cheap cheek cheese chest chief choice choose chunk circle
cite citizen civil claim clean clerk clever click client climate climb clock
clone cloth cloud cluster coach coast coffee collect column combat combine
comfort command comment commit compare compete complex concept concern
concert conduct confirm connect consist constant consult consume contact
content contest context contract convert cookie copper correct council
count county couple courage court cousin crack craft crash crazy cream credit
crime crisis criteria critic crowd crucial crude cruise crystal culture curve
custom cycle daily damage danger deadline debate decade decline decrease
deliver demand depend deploy deputy derive describe desert design desire
detail detect device devote differ digital dignity direct discuss
disease dismiss display distance district divide doctor document domain
double doubt dozen draft drama drag drawer drift drill driver drug dry due
dump eager echo edit editor elect element elite email emerge
emotion employ empty enable engage engine enjoy enormous ensure entity entry
equal equip error escape essay estate estimate ethnic evaluate event evidence
exact examine exceed except exchange exist expand expect expert export expose
extend extent extra fabric factor faculty fairly faith false fatal fault
favor feature fence fiber fiction finger finish fiscal flash flavor flesh
flight float flood fluid focus forest formal format formula forth
fortune forum foster frame fraud fresh fruit fuel fund gallery gap gather
gender genre gentle genuine gesture giant glance global glove grace grade
grain grant graph grasp grave gross guard guest guide habit handle harbor
harsh hazard health hidden highway hockey honest honor hotel humor hunger
hybrid ideal identify ignore illegal illness impact imply import impose
impress improve incident include income index indicate infant inform initial
injury inner input inquiry insect insert insight insist install instance
instant invest invite invoke involve island jacket journal journey judge
juice junior justice label labor ladder landscape laptop launch layer
leader league legacy legal legend lemon length lesson liable liberal library
license limit liquid liter litter lobby logic loose lovely loyal lucky
luxury magic magnet manage manner manual margin marine marry match material
matrix mature maximum mayor meaning medal media medium mental mention menu
merchant mercy merely merge merit metal meter midnight minimum minister
minor minority miracle mirror mission mistake mobile modify module monitor
monster moral mostly motion motor mount mouse multiple muscle museum mutual
narrow native nature navy nerve neutral noble noise nominee normal notable
notion novel nowhere nuclear nurse object observe obtain obvious occasion
occupy ocean offense officer official onion online operate opinion oppose
option orange organ origin ounce outcome output overall owner oxygen
packet palace panel panic parallel partner passage passion patch patent
patient pattern pause payment penalty pencil pension pepper percent perfect
perform permit phase photo phrase physical piano pitch pixel planet
plastic platform pleasure plenty poem poet poll portion portrait possess
potato pound powder praise predict prefer premise prepare presence preserve
prevent previous pride priest primary prime prince prior priority
prison privacy prize probe procedure proceed proclaim profile profit progress
promise promote prompt proof proper property propose prospect protect protein
protest proud prove provider province publish purple pursue puzzle
quarter queen query quote rabbit radar random rapid rarely ratio reaction
reader realm rebel recall recipe recover refer reflect reform refuse regard
regime register regret regular reject relate relax release relief remove
render repair repeat replace reply request rescue reserve resident resist
resolve resort respect response restore retain retire retreat reveal revenue
review revise reward rhythm rice rival robot robust rocket rough round route
routine royal rural sacred sadly salad salary sample satisfy sauce scale
scan scandal scene schedule scheme scholar scope score scratch screen script
search secret sector secure segment seize select senate senior sensor
sentence sequence server session settle severe shade shadow shallow shape
sharp sheet shelf shelter shield shore shut sight signal silence
silent silver skirt slave smart smooth snake soap soccer
sodium solar somehow speaker species speech speed sphere spirit sponsor
spoon square stable stadium stair stance status steady stock stomach
storage strange strategy stream strength stress strict strike string stroke
studio stupid submit subtle suburb succeed sudden sugar suite sunny super
supply suppose supreme surely surgery survey survive suspect sustain swallow
sweater symbol symptom syntax tactic talent target taste teaspoon
technique temple tennis tension terror thanks theater theme thereby thirty
threat throat tissue tobacco tomato tongue topic tough tower toxic track
tragedy transfer transit trauma treaty tremendous tribe tropical
tunnel twelve twenty ugly ultimate unable uncle undergo underlying unfold
uniform unique universe unknown unless unlike update upgrade upper upset
urban useful user usual utility vacation valley vanish vehicle vendor venture
verdict verify version versus vessel veteran victim victory video village
violate virtue virus visible vision visual vital vitamin volume voter wages
wealth weekend welcome welfare whatever wheat whenever whereas whisper widely
widow width winner wisdom witness wooden worried wound yield youth
token login logout users names web
app items param values tests demo
""".split())
